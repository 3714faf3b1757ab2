(* The split-based frame decoder: the differential oracle for
   [Datalog_storage.Wal]'s streaming decoder.  A body is split into
   lines on '\n' and each line into fields on '\t'; every field is cut
   out with [String.sub] and read with [int_of_string_opt] or the
   [unescape] below.  It accepts exactly the bodies the format defines,
   and [test_wal.ml] requires the streaming decoder to accept and reject
   the same bodies and to decode the same facts, meta entries and
   dictionary. *)

open Datalog_ast

exception Bad of string

let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

let strip_prefix ~tag field =
  let n = String.length tag in
  if String.length field >= n && String.sub field 0 n = tag then
    String.sub field n (String.length field - n)
  else bad "expected a %S line" (String.trim tag)

(* its own readers too, so that no code is shared with the decoder under
   test *)
let unescape s =
  let len = String.length s in
  let buf = Buffer.create len in
  let rec go i =
    if i >= len then Ok (Buffer.contents buf)
    else if s.[i] = '\\' then
      if i + 1 >= len then Error "dangling escape"
      else begin
        match s.[i + 1] with
        | '\\' -> Buffer.add_char buf '\\'; go (i + 2)
        | 't' -> Buffer.add_char buf '\t'; go (i + 2)
        | 'n' -> Buffer.add_char buf '\n'; go (i + 2)
        | 'r' -> Buffer.add_char buf '\r'; go (i + 2)
        | 's' -> Buffer.add_char buf ' '; go (i + 2)
        | c -> Error (Printf.sprintf "bad escape '\\%c'" c)
      end
    else begin
      Buffer.add_char buf s.[i];
      go (i + 1)
    end
  in
  go 0

let decode_value s =
  if String.length s < 2 || s.[1] <> ':' then
    Error (Printf.sprintf "value %S lacks a type tag" s)
  else
    let payload = String.sub s 2 (String.length s - 2) in
    match s.[0] with
    | 'i' -> (
      match int_of_string_opt payload with
      | Some i -> Ok (Value.int i)
      | None -> Error (Printf.sprintf "bad integer %S" payload))
    | 's' -> Result.map Value.sym (unescape payload)
    | c -> Error (Printf.sprintf "unknown value tag '%c'" c)

let unescape_exn s =
  match unescape s with Ok v -> v | Error reason -> bad "%s" reason

let decode_code ~dict s : Code.t =
  match int_of_string_opt s with
  | None -> bad "bad code %S" s
  | Some c ->
    if c land 1 = 1 then c
    else (
      match Hashtbl.find_opt dict c with
      | Some c' -> c'
      | None -> bad "code %d not in dictionary" c)

(* the first [n] lines, and the rest *)
let split_at n lines =
  let rec go n acc = function
    | rest when n = 0 -> (List.rev acc, rest)
    | [] -> bad "frame line count mismatch"
    | l :: rest -> go (n - 1) (l :: acc) rest
  in
  go n [] lines

let decode_facts_exn ~dict ~ndict ~nfacts lines =
  if List.length lines <> ndict + nfacts then
    bad "frame line count mismatch (expected %d+%d, got %d)" ndict nfacts
      (List.length lines);
  let dict_lines, fact_lines = split_at ndict lines in
  List.iter
    (fun line ->
      match String.split_on_char '\t' line with
      | [ code_field; tagged ] -> (
        let code_s = strip_prefix ~tag:"d " code_field in
        match int_of_string_opt code_s with
        | None -> bad "bad dictionary code %S" code_s
        | Some stored -> (
          match decode_value tagged with
          | Ok v -> Hashtbl.replace dict stored (Code.of_value v)
          | Error reason -> bad "bad dictionary value: %s" reason))
      | _ -> bad "malformed dictionary line %S" line)
    dict_lines;
  List.map
    (fun line ->
      match String.split_on_char '\t' line with
      | name_field :: arity_s :: code_fields -> (
        let name = unescape_exn (strip_prefix ~tag:"f " name_field) in
        match int_of_string_opt arity_s with
        | None -> bad "bad arity %S" arity_s
        | Some arity ->
          if List.length code_fields <> arity then
            bad "fact %s/%d with %d fields" name arity (List.length code_fields);
          (name, arity, Array.of_list (List.map (decode_code ~dict) code_fields)))
      | _ -> bad "malformed fact line %S" line)
    fact_lines

let body_lines body =
  match List.rev (String.split_on_char '\n' body) with
  (* the body ends with a newline, so the split has a trailing "" *)
  | "" :: rest -> List.rev rest
  | _ -> bad "frame body does not end with a newline"

let head_and_rest body =
  match body_lines body with
  | [] -> bad "empty frame body"
  | head :: rest -> (head, rest)

let count s =
  match int_of_string_opt s with Some n when n >= 0 -> Some n | _ -> None

(* a meta body: the head's words before its counts, the meta entries and
   the facts *)
let meta_body ~dict body =
  match
    let head, rest = head_and_rest body in
    let words, nmeta, ndict, nfacts =
      match List.rev (String.split_on_char ' ' head) with
      | nf :: nd :: nm :: words -> (
        match (count nm, count nd, count nf) with
        | Some nm, Some nd, Some nf -> (List.rev words, nm, nd, nf)
        | _ -> bad "malformed frame head %S" head)
      | _ -> bad "malformed frame head %S" head
    in
    let meta_lines, rest = split_at nmeta rest in
    let meta =
      List.map
        (fun line ->
          match String.split_on_char '\t' line with
          | [ k; v ] -> (unescape_exn (strip_prefix ~tag:"m " k), unescape_exn v)
          | _ -> bad "malformed meta line %S" line)
        meta_lines
    in
    (words, meta, decode_facts_exn ~dict ~ndict ~nfacts rest)
  with
  | frame -> Ok frame
  | exception Bad reason -> Error reason

(* a transaction body: id, op, idempotency key and facts *)
let txn_body ~dict body =
  match
    let head, rest = head_and_rest body in
    match String.split_on_char ' ' head with
    | [ "txn"; id; opn; nf; nd; key ] -> (
      match
        ( int_of_string_opt id,
          (match opn with "add" -> Some `Add | "remove" -> Some `Remove | _ -> None),
          count nf,
          count nd )
      with
      | Some txn, Some op, Some nfacts, Some ndict ->
        let key =
          match key with
          | "-" -> None
          | k when String.length k >= 2 && String.sub k 0 2 = "k:" ->
            Some (unescape_exn (String.sub k 2 (String.length k - 2)))
          | _ -> bad "bad idempotency key field"
        in
        (txn, op, key, decode_facts_exn ~dict ~ndict ~nfacts rest)
      | _ -> bad "malformed txn line %S" head)
    | _ -> bad "malformed txn line %S" head
  with
  | frame -> Ok frame
  | exception Bad reason -> Error reason

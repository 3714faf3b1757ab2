open Datalog_ast

let magic = "ALEXWAL"
let format_version = 1
let header = Printf.sprintf "%s %d\n" magic format_version

type fsync_policy = Always | Interval of float | Never

let fsync_policy_of_string s =
  match String.lowercase_ascii s with
  | "always" -> Ok Always
  | "never" -> Ok Never
  | "interval" -> Ok (Interval 0.05)
  | s when String.length s > 9 && String.sub s 0 9 = "interval:" -> (
    let arg = String.sub s 9 (String.length s - 9) in
    match float_of_string_opt arg with
    | Some f when f > 0. -> Ok (Interval f)
    | _ -> Error (Printf.sprintf "bad fsync interval %S" arg))
  | s ->
    Error
      (Printf.sprintf
         "unknown fsync policy %S (expected always, never or interval[:SECONDS])"
         s)

let fsync_policy_name = function
  | Always -> "always"
  | Never -> "never"
  | Interval s -> Printf.sprintf "interval:%g" s

type entry = {
  e_txn : int;
  e_op : [ `Add | `Remove ];
  e_key : string option;
  e_facts : Atom.t list;
}

type corruption =
  | Not_a_log of string
  | Unsupported_version of int
  | Damaged of { offset : int; reason : string }

let describe_corruption = function
  | Not_a_log msg -> Printf.sprintf "not a write-ahead log: %s" msg
  | Unsupported_version v ->
    Printf.sprintf "unsupported log format version %d (this build reads %d)" v
      format_version
  | Damaged { offset; reason } ->
    Printf.sprintf "log damaged at byte %d: %s" offset reason

type tail = Clean | Torn of { at : int; reason : string }

let unix_msg fn e = Printf.sprintf "%s: %s" fn (Unix.error_message e)

let op_name = function `Add -> "add" | `Remove -> "remove"

let op_of_name = function
  | "add" -> Some `Add
  | "remove" -> Some `Remove
  | _ -> None

(* ---------------------------------------------------------------- *)
(* Frames *)

let frame body =
  Printf.sprintf "frame %d %s\n" (String.length body)
    (Crc32.to_hex (Crc32.string body))
  ^ body

type stop =
  | End
  | Truncated of { at : int; reason : string }
  | Bad_checksum of { at : int; expected : string; actual : string }
  | Bad_header of { at : int; reason : string }

let scan data =
  let len = String.length data in
  let hlen = String.length header in
  if len >= hlen && String.sub data 0 hlen = header then begin
    let rec frames pos acc =
      let stop s = (List.rev acc, s) in
      if pos >= len then stop End
      else
        match String.index_from_opt data pos '\n' with
        | None -> stop (Truncated { at = pos; reason = "truncated frame header" })
        | Some nl -> (
          let malformed () =
            stop (Bad_header { at = pos; reason = "malformed frame header" })
          in
          match String.split_on_char ' ' (String.sub data pos (nl - pos)) with
          | [ "frame"; n_s; crc_s ] -> (
            match (int_of_string_opt n_s, Crc32.of_hex crc_s) with
            | Some n, Some crc when n >= 0 ->
              let bstart = nl + 1 in
              if n > len - bstart then
                stop (Truncated { at = pos; reason = "truncated frame body" })
              else
                let body = String.sub data bstart n in
                let actual = Crc32.string body in
                if actual <> crc then
                  stop
                    (Bad_checksum
                       { at = pos;
                         expected = Crc32.to_hex crc;
                         actual = Crc32.to_hex actual
                       })
                else frames (bstart + n) ((pos, body) :: acc)
            | _ -> malformed ())
          | _ -> malformed ())
    in
    Ok (frames hlen [])
  end
  else
    (* a short or damaged magic line is a torn creation, unless it names
       another version of this format *)
    let version =
      match String.index_opt data '\n' with
      | None -> None
      | Some nl -> (
        match String.split_on_char ' ' (String.sub data 0 nl) with
        | [ m; v ] when m = magic -> int_of_string_opt v
        | _ -> None)
    in
    match version with
    | Some v when v <> format_version -> Error (Unsupported_version v)
    | _ -> Error (Not_a_log "missing or torn header")

(* ---------------------------------------------------------------- *)
(* Fact lines *)

type lines = { ndict : int; nfacts : int; text : string; fresh : int list }

(* [Buffer.add_string buf (string_of_int n)] without the allocation and
   the format parsing: codes are most of a frame's bytes *)
let add_int buf scratch n =
  if n < 0 then Buffer.add_string buf (string_of_int n)
  else if n < 10 then Buffer.add_char buf (Char.unsafe_chr (48 + n))
  else begin
    let len = Bytes.length scratch in
    let i = ref len and n = ref n in
    while !n > 0 do
      decr i;
      Bytes.unsafe_set scratch !i (Char.unsafe_chr (48 + (!n mod 10)));
      n := !n / 10
    done;
    Buffer.add_subbytes buf scratch !i (len - !i)
  end

let fact_lines ~emitted iter =
  let dict = Buffer.create 256 in
  let facts = Buffer.create 1024 in
  let fresh_set = Hashtbl.create 16 in
  let fresh = ref [] in
  let nfacts = ref 0 in
  (* facts arrive grouped by name: escape each name once per run *)
  let last = ref ("", -1) in
  let prefix = ref "" in
  let scratch = Bytes.create 20 in
  iter (fun name arity (tuple : Tuple.t) ->
      if Array.length tuple <> arity then
        invalid_arg
          (Printf.sprintf "Wal.fact_lines: tuple of width %d for %s/%d"
             (Array.length tuple) name arity);
      (let last_name, last_arity = !last in
       if name != last_name || arity <> last_arity then begin
         last := (name, arity);
         prefix := Printf.sprintf "f %s\t%d" (Snapshot.escape name) arity
       end);
      Buffer.add_string facts !prefix;
      Array.iter
        (fun (c : Code.t) ->
          if
            c land 1 = 0
            && (not (Hashtbl.mem emitted c))
            && not (Hashtbl.mem fresh_set c)
          then begin
            Hashtbl.add fresh_set c ();
            fresh := c :: !fresh;
            Buffer.add_string dict
              (Printf.sprintf "d %d\t%s\n" c
                 (Snapshot.encode_value (Code.to_value c)))
          end;
          Buffer.add_char facts '\t';
          add_int facts scratch c)
        tuple;
      Buffer.add_char facts '\n';
      incr nfacts);
  { ndict = Hashtbl.length fresh_set;
    nfacts = !nfacts;
    text = Buffer.contents dict ^ Buffer.contents facts;
    fresh = List.rev !fresh
  }

exception Bad of string

let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

let strip_prefix ~tag field =
  let n = String.length tag in
  if String.length field >= n && String.sub field 0 n = tag then
    String.sub field n (String.length field - n)
  else bad "expected a %S line" (String.trim tag)

let decode_code ~dict s : Code.t =
  match int_of_string_opt s with
  | None -> bad "bad code %S" s
  | Some c ->
    if c land 1 = 1 then c
    else (
      (* even codes are process-local: resolve through the running
         dictionary, which later [d] lines may have overridden *)
      match Hashtbl.find_opt dict c with
      | Some c' -> c'
      | None -> bad "code %d not in dictionary" c)

let decode_facts_exn ~dict ~ndict ~nfacts lines =
  if List.length lines <> ndict + nfacts then
    bad "frame line count mismatch (expected %d+%d, got %d)" ndict nfacts
      (List.length lines);
  let rec split n acc = function
    | rest when n = 0 -> (List.rev acc, rest)
    | [] -> bad "frame line count mismatch"
    | l :: rest -> split (n - 1) (l :: acc) rest
  in
  let dict_lines, fact_lines = split ndict [] lines in
  List.iter
    (fun line ->
      match String.split_on_char '\t' line with
      | [ code_field; tagged ] -> (
        let code_s = strip_prefix ~tag:"d " code_field in
        match int_of_string_opt code_s with
        | None -> bad "bad dictionary code %S" code_s
        | Some stored -> (
          match Snapshot.decode_value tagged with
          | Ok v -> Hashtbl.replace dict stored (Code.of_value v)
          | Error reason -> bad "bad dictionary value: %s" reason))
      | _ -> bad "malformed dictionary line %S" line)
    dict_lines;
  let last = ref ("", "") in
  List.map
    (fun line ->
      match String.split_on_char '\t' line with
      | name_field :: arity_s :: code_fields -> (
        let name_esc = strip_prefix ~tag:"f " name_field in
        let name =
          if fst !last = name_esc then snd !last
          else
            match Snapshot.unescape name_esc with
            | Ok n ->
              last := (name_esc, n);
              n
            | Error reason -> bad "bad predicate name: %s" reason
        in
        match int_of_string_opt arity_s with
        | None -> bad "bad arity %S" arity_s
        | Some arity ->
          if List.length code_fields <> arity then
            bad "fact %s/%d with %d fields" name arity (List.length code_fields);
          (name, arity, Array.of_list (List.map (decode_code ~dict) code_fields)))
      | _ -> bad "malformed fact line %S" line)
    fact_lines

let decode_facts ~dict ~ndict ~nfacts lines =
  match decode_facts_exn ~dict ~ndict ~nfacts lines with
  | facts -> Ok facts
  | exception Bad reason -> Error reason

let body_lines body =
  match List.rev (String.split_on_char '\n' body) with
  (* the body ends with a newline, so the split has a trailing "" *)
  | "" :: rest -> Ok (List.rev rest)
  | _ -> Error "frame body does not end with a newline"

(* the frame may be partially on disk: cut it back off, so the log still
   ends at the last complete frame *)
let cut_back path ~at msg =
  match Unix.truncate path at with
  | () -> Error msg
  | exception Unix.Unix_error (e, fn, _) ->
    Error (Printf.sprintf "%s; truncate failed: %s" msg (unix_msg fn e))

let append_frame path ~at body =
  let framed = frame body in
  match
    let oc = open_out_gen [ Open_wronly; Open_binary ] 0o644 path in
    Fun.protect
      ~finally:(fun () -> Out_channel.close_noerr oc)
      (fun () ->
        seek_out oc at;
        Faults.write_string oc framed;
        Faults.fsync oc)
  with
  | () -> Ok (at + String.length framed)
  | exception Sys_error msg -> cut_back path ~at msg
  | exception Unix.Unix_error (e, fn, _) -> cut_back path ~at (unix_msg fn e)

(* ---------------------------------------------------------------- *)
(* Transactions *)

(* One frame body per transaction.  Dictionary lines are deltas against
   [written], the set of even codes already emitted since this writer
   opened — the codes this batch introduces are returned so the caller
   commits them only once the frame is fully on disk. *)
let frame_body ~written ~txn ~op ~key facts =
  let lines =
    fact_lines ~emitted:written (fun emit ->
        List.iter
          (fun a ->
            let p = Atom.pred a in
            emit (Pred.name p) (Pred.arity p) (Tuple.of_atom a))
          facts)
  in
  ( Printf.sprintf "txn %d %s %d %d %s\n" txn (op_name op) lines.nfacts
      lines.ndict
      (match key with None -> "-" | Some k -> "k:" ^ Snapshot.escape k)
    ^ lines.text,
    lines.fresh )

(* Decode one CRC-verified body; folds its [d] lines into [dict] with
   replace semantics (a restart's writer re-emits codes the dead process
   already defined, overriding them for every later frame). *)
let decode_frame ~dict body =
  match
    let lines =
      match body_lines body with Ok l -> l | Error reason -> bad "%s" reason
    in
    let head, rest =
      match lines with [] -> bad "empty frame body" | h :: r -> (h, r)
    in
    let txn, op, nfacts, ndict, key =
      match String.split_on_char ' ' head with
      | [ "txn"; id; opn; nf; nd; key ] -> (
        match
          ( int_of_string_opt id,
            op_of_name opn,
            int_of_string_opt nf,
            int_of_string_opt nd )
        with
        | Some txn, Some op, Some nfacts, Some ndict
          when nfacts >= 0 && ndict >= 0 ->
          let key =
            match key with
            | "-" -> None
            | k when String.length k >= 2 && String.sub k 0 2 = "k:" -> (
              match Snapshot.unescape (String.sub k 2 (String.length k - 2)) with
              | Ok k -> Some k
              | Error reason -> bad "bad idempotency key: %s" reason)
            | _ -> bad "bad idempotency key field"
          in
          (txn, op, nfacts, ndict, key)
        | _ -> bad "malformed txn line %S" head)
      | _ -> bad "malformed txn line %S" head
    in
    let facts =
      List.map
        (fun (name, arity, tuple) -> Tuple.to_atom (Pred.make name arity) tuple)
        (decode_facts_exn ~dict ~ndict ~nfacts rest)
    in
    { e_txn = txn; e_op = op; e_key = key; e_facts = facts }
  with
  | entry -> Ok entry
  | exception Bad reason -> Error reason

let load ?(mode = Snapshot.Strict) path =
  let lenient = mode = Snapshot.Lenient in
  if not (Sys.file_exists path) then Ok ([], 0, Clean)
  else
    match Faults.read_file path with
    | exception Sys_error msg -> Error (Not_a_log msg)
    | data -> (
      match scan data with
      | Error (Not_a_log reason) when lenient ->
        (* torn creation: recover to an empty log *)
        Ok ([], 0, Torn { at = 0; reason })
      | Error c -> Error c
      | Ok (frames, stop) -> (
        let dict : (int, Code.t) Hashtbl.t = Hashtbl.create 64 in
        let rec decode acc = function
          | [] -> (
            match stop with
            | End -> Ok (List.rev acc, String.length data, Clean)
            | Truncated { at; reason } | Bad_header { at; reason } ->
              stopped acc ~at reason
            | Bad_checksum { at; expected; actual } ->
              stopped acc ~at
                (Printf.sprintf "frame checksum mismatch (expected %s, got %s)"
                   expected actual))
          | (at, body) :: rest -> (
            match decode_frame ~dict body with
            | Ok entry -> decode (entry :: acc) rest
            | Error reason -> stopped acc ~at reason)
        and stopped acc ~at reason =
          if lenient then Ok (List.rev acc, at, Torn { at; reason })
          else Error (Damaged { offset = at; reason })
        in
        decode [] frames))

(* ---------------------------------------------------------------- *)
(* Appending *)

type t = {
  w_path : string;
  policy : fsync_policy;
  mutable oc : out_channel;
  mutable pos : int;
  written : (int, unit) Hashtbl.t;
      (* even codes already emitted since this writer opened *)
  mutable dirty : bool;
  mutable last_sync : float;
  mutable wedged : string option;
  mutable last_append : (int * int list) option;  (* pre-size, fresh codes *)
}

let size t = t.pos
let path t = t.w_path
let fsync_policy t = t.policy

let wedge t msg =
  t.wedged <- Some msg;
  Error (Printf.sprintf "wal wedged: %s" msg)

let check_wedged t =
  match t.wedged with
  | Some msg -> Error (Printf.sprintf "wal wedged after earlier failure: %s" msg)
  | None -> Ok ()

let do_sync t ~now =
  match
    Faults.fsync t.oc;
    t.dirty <- false;
    t.last_sync <- now
  with
  | () -> Ok ()
  | exception Sys_error msg -> Error msg
  | exception Unix.Unix_error (e, fn, _) -> Error (unix_msg fn e)

let open_for_append ?(fsync = Always) ~valid_bytes path =
  let hlen = String.length header in
  (* a valid prefix shorter than the header means "start over" *)
  let valid = if valid_bytes < hlen then 0 else valid_bytes in
  match
    let oc = open_out_gen [ Open_wronly; Open_creat; Open_binary ] 0o644 path in
    (match
       Unix.ftruncate (Unix.descr_of_out_channel oc) valid;
       seek_out oc valid
     with
    | () -> ()
    | exception e ->
      Out_channel.close_noerr oc;
      raise e);
    let pos =
      if valid = 0 then begin
        Faults.write_string oc header;
        hlen
      end
      else valid
    in
    {
      w_path = path;
      policy = fsync;
      oc;
      pos;
      written = Hashtbl.create 64;
      dirty = (valid = 0);
      last_sync = 0.;
      wedged = None;
      last_append = None;
    }
  with
  | t -> Ok t
  | exception Sys_error msg -> Error msg
  | exception Unix.Unix_error (e, fn, _) -> Error (unix_msg fn e)

let truncate_to_raw t pos =
  match
    Out_channel.flush t.oc;
    Unix.ftruncate (Unix.descr_of_out_channel t.oc) pos;
    seek_out t.oc pos
  with
  | () ->
    t.pos <- pos;
    Ok ()
  | exception Sys_error msg -> Error msg
  | exception Unix.Unix_error (e, fn, _) -> Error (unix_msg fn e)

let append t ~txn ~op ?key facts =
  match check_wedged t with
  | Error _ as e -> e
  | Ok () -> (
    match frame_body ~written:t.written ~txn ~op ~key facts with
    | exception Invalid_argument msg -> Error msg
    | body, fresh -> (
      let frame = frame body in
      let pre = t.pos in
      match
        Faults.write_string t.oc frame;
        (* post-append / pre-fsync: the drill kills here to prove that a
           written-but-possibly-unsynced frame either replays or is
           truncated, never half-applies *)
        Faults.point "wal.appended";
        (match t.policy with
        | Always -> (
          match do_sync t ~now:(Unix.gettimeofday ()) with
          | Ok () -> ()
          | Error msg -> raise (Sys_error msg))
        | Interval _ | Never -> t.dirty <- true)
      with
      | () ->
        t.pos <- pre + String.length frame;
        List.iter (fun c -> Hashtbl.replace t.written c ()) fresh;
        t.last_append <- Some (pre, fresh);
        Ok ()
      | exception Sys_error msg -> (
        (* the frame may be partially on disk; cut it back so a later
           append cannot land after a torn middle *)
        match truncate_to_raw t pre with
        | Ok () -> Error msg
        | Error tmsg ->
          wedge t (Printf.sprintf "%s; truncate failed: %s" msg tmsg))))

let truncate_last t =
  match check_wedged t with
  | Error _ as e -> e
  | Ok () -> (
    match t.last_append with
    | None -> Error "no append to undo"
    | Some (pre, fresh) -> (
      match truncate_to_raw t pre with
      | Error msg -> wedge t msg
      | Ok () -> (
        List.iter (fun c -> Hashtbl.remove t.written c) fresh;
        t.last_append <- None;
        (* under Always the frame was already durable: make its removal
           durable too, so a crash cannot resurrect a failed apply *)
        match t.policy with
        | Always -> (
          match do_sync t ~now:(Unix.gettimeofday ()) with
          | Ok () -> Ok ()
          | Error msg -> wedge t msg)
        | Interval _ | Never -> Ok ())))

let sync t =
  match check_wedged t with
  | Error _ as e -> e
  | Ok () -> do_sync t ~now:(Unix.gettimeofday ())

let maybe_sync t ~now =
  match t.policy with
  | Interval s when t.wedged = None && t.dirty && now -. t.last_sync >= s ->
    do_sync t ~now
  | _ -> Ok ()

let reset t =
  match check_wedged t with
  | Error _ as e -> e
  | Ok () -> (
    Out_channel.close_noerr t.oc;
    let reopen ~at =
      match
        let oc =
          open_out_gen [ Open_wronly; Open_creat; Open_binary ] 0o644 t.w_path
        in
        seek_out oc at;
        oc
      with
      | oc ->
        t.oc <- oc;
        t.pos <- at;
        Ok ()
      | exception Sys_error msg -> Error msg
      | exception Unix.Unix_error (e, fn, _) -> Error (unix_msg fn e)
    in
    match Snapshot.atomic_write_string t.w_path header with
    | Ok () -> (
      match reopen ~at:(String.length header) with
      | Ok () ->
        Hashtbl.reset t.written;
        t.dirty <- false;
        t.last_append <- None;
        Ok ()
      | Error msg -> wedge t msg)
    | Error msg -> (
      (* the old log is still in place; keep appending to it (the
         caller's rotation just didn't happen) *)
      match reopen ~at:t.pos with
      | Ok () -> Error msg
      | Error m2 -> wedge t (Printf.sprintf "%s; reopen failed: %s" msg m2)))

let close t = Out_channel.close_noerr t.oc

open Datalog_ast

let format_version = 2
let oldest_readable_version = 2

let magic = "ALEXSNAP"

type corruption =
  | Not_a_snapshot of string
  | Unsupported_version of int
  | Truncated of string
  | Checksum_mismatch of { section : string; expected : string; actual : string }
  | Malformed of { section : string; line : int; reason : string }
  | Manifest_mismatch of { section : string; reason : string }

type warning = { w_section : string; w_corruption : corruption }

type mode = Strict | Lenient

type section = {
  s_name : string;
  s_arity : int;
  s_tuples : Tuple.t list;
}

type contents = {
  meta : (string * string) list;
  sections : section list;
  warnings : warning list;
}

let describe_corruption = function
  | Not_a_snapshot msg -> Printf.sprintf "not a snapshot: %s" msg
  | Unsupported_version v ->
    Printf.sprintf
      "unsupported snapshot format version %d (this build reads %d-%d)" v
      oldest_readable_version format_version
  | Truncated what -> Printf.sprintf "truncated snapshot: missing %s" what
  | Checksum_mismatch { section; expected; actual } ->
    Printf.sprintf "checksum mismatch in %s: expected %s, computed %s" section
      expected actual
  | Malformed { section; line; reason } ->
    Printf.sprintf "malformed %s at line %d: %s" section line reason
  | Manifest_mismatch { section; reason } ->
    Printf.sprintf "manifest disagrees with %s: %s" section reason

let pp_corruption ppf c = Format.pp_print_string ppf (describe_corruption c)

let describe_warning w =
  Printf.sprintf "skipped %s: %s" w.w_section (describe_corruption w.w_corruption)

(* ---------------------------------------------------------------- *)
(* Escaping: backslash, tab, newline, CR and space are structural *)

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | ' ' -> Buffer.add_string buf "\\s"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

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

let encode_value = function
  | Value.Int i -> "i:" ^ string_of_int i
  | Value.Sym s -> "s:" ^ escape (Symbol.name s)

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

(* ---------------------------------------------------------------- *)
(* Writing *)

let atomic_write_string path data =
  let tmp = path ^ ".tmp" in
  match
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> Out_channel.close_noerr oc)
      (fun () ->
        Faults.write_string oc data;
        Faults.fsync oc);
    Faults.rename tmp path;
    (* the rename only becomes durable once the parent directory's own
       metadata reaches stable storage: without this, a power loss after
       the rename can resurrect the old file (or nothing) on replay of
       the directory — the classic missing-dirsync bug *)
    Faults.dirsync (Filename.dirname path)
  with
  | () -> Ok ()
  | exception Sys_error msg ->
    (try Sys.remove tmp with Sys_error _ -> ());
    Error msg
  | exception Unix.Unix_error (e, fn, _) ->
    (try Sys.remove tmp with Sys_error _ -> ());
    Error (Printf.sprintf "%s: %s" fn (Unix.error_message e))

let serialize ?(meta = []) ~sections () =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Printf.sprintf "%s %d\n" magic format_version);
  Buffer.add_string buf (Printf.sprintf "meta %d\n" (List.length meta));
  List.iter
    (fun (k, v) ->
      Buffer.add_string buf (escape k);
      Buffer.add_char buf '\t';
      Buffer.add_string buf (escape v);
      Buffer.add_char buf '\n')
    meta;
  (* Dictionary: tuples are stored as raw codes, which are process-local
     for symbols and dictionary ints (the even codes).  Each such code
     used anywhere in the image gets one [<code><TAB><tagged value>]
     line, in order of first occurrence, so the reader can re-intern.
     Odd codes (small ints) are self-describing and stay unmapped. *)
  let dict_slot = Hashtbl.create 64 in
  let dict_order = ref [] in
  List.iter
    (fun (_, _, tuples) ->
      List.iter
        (fun tuple ->
          Array.iter
            (fun c ->
              if c land 1 = 0 && not (Hashtbl.mem dict_slot c) then begin
                Hashtbl.add dict_slot c ();
                dict_order := c :: !dict_order
              end)
            tuple)
        tuples)
    sections;
  let dict_order = List.rev !dict_order in
  let dbody = Buffer.create 256 in
  List.iter
    (fun c ->
      Buffer.add_string dbody (string_of_int c);
      Buffer.add_char dbody '\t';
      Buffer.add_string dbody (encode_value (Code.to_value c));
      Buffer.add_char dbody '\n')
    dict_order;
  Buffer.add_string buf
    (Printf.sprintf "dict %d %s\n" (List.length dict_order)
       (Crc32.to_hex (Crc32.string (Buffer.contents dbody))));
  Buffer.add_buffer buf dbody;
  let manifest = Buffer.create 256 in
  List.iter
    (fun (name, arity, tuples) ->
      let body = Buffer.create 1024 in
      List.iter
        (fun tuple ->
          if Array.length tuple <> arity then
            invalid_arg
              (Printf.sprintf "Snapshot.write: tuple of arity %d in section %S/%d"
                 (Array.length tuple) name arity);
          Array.iteri
            (fun i (c : Code.t) ->
              if i > 0 then Buffer.add_char body '\t';
              Buffer.add_string body (string_of_int c))
            tuple;
          Buffer.add_char body '\n')
        tuples;
      let crc = Crc32.to_hex (Crc32.string (Buffer.contents body)) in
      let count = List.length tuples in
      Buffer.add_string buf
        (Printf.sprintf "section %s %d %d %s\n" (escape name) arity count crc);
      Buffer.add_buffer buf body;
      Buffer.add_string manifest
        (Printf.sprintf "%s\t%d\t%d\t%s\n" (escape name) arity count crc))
    sections;
  let mbody = Buffer.contents manifest in
  Buffer.add_string buf
    (Printf.sprintf "manifest %d %s\n" (List.length sections)
       (Crc32.to_hex (Crc32.string mbody)));
  Buffer.add_string buf mbody;
  Buffer.add_string buf (Printf.sprintf "end %s\n" magic);
  Buffer.contents buf

let write ?(meta = []) ~sections path =
  let seen = Hashtbl.create 16 in
  let dup =
    List.find_opt
      (fun (name, arity, _) ->
        if Hashtbl.mem seen (name, arity) then true
        else begin
          Hashtbl.add seen (name, arity) ();
          false
        end)
      sections
  in
  match dup with
  | Some (name, arity, _) ->
    Error (Printf.sprintf "duplicate section %S/%d" name arity)
  | None -> atomic_write_string path (serialize ~meta ~sections ())

(* ---------------------------------------------------------------- *)
(* Reading *)

exception Fail of corruption

let read ?(mode = Strict) path =
  match In_channel.with_open_bin path In_channel.input_lines with
  | exception Sys_error msg -> Error (Not_a_snapshot msg)
  | all_lines -> (
    let lines = Array.of_list all_lines in
    let nlines = Array.length lines in
    let pos = ref 0 in
    let warnings = ref [] in
    let fail c = raise (Fail c) in
    let warn ~section c =
      match mode with
      | Strict -> fail c
      | Lenient -> warnings := { w_section = section; w_corruption = c } :: !warnings
    in
    let next what =
      if !pos >= nlines then fail (Truncated what)
      else begin
        let l = lines.(!pos) in
        incr pos;
        l
      end
    in
    let lineno () = !pos (* 1-based number of the line just consumed *) in
    let malformed ~section reason = Malformed { section; line = lineno (); reason } in
    let unescape_or ~section s =
      match unescape s with
      | Ok v -> v
      | Error reason -> fail (malformed ~section reason)
    in
    let parse_int ~section s =
      match int_of_string_opt s with
      | Some i when i >= 0 -> i
      | _ -> fail (malformed ~section (Printf.sprintf "bad number %S" s))
    in
    match
      (* header *)
      (match String.split_on_char ' ' (next "header") with
      | [ m; v ] when m = magic ->
        let v = parse_int ~section:"header" v in
        if v < oldest_readable_version || v > format_version then
          fail (Unsupported_version v)
      | _ -> fail (Not_a_snapshot "bad magic line"));
      (* meta *)
      let meta =
        match String.split_on_char ' ' (next "meta header") with
        | [ "meta"; n ] ->
          let n = parse_int ~section:"meta" n in
          List.init n (fun _ ->
              match String.split_on_char '\t' (next "meta entry") with
              | [ k; v ] ->
                (unescape_or ~section:"meta" k, unescape_or ~section:"meta" v)
              | _ -> fail (malformed ~section:"meta" "expected key<TAB>value"))
        | _ -> fail (malformed ~section:"meta" "expected 'meta <n>'")
      in
      (* dictionary: stored code -> re-interned current code.  The
         dictionary is structural — without it no section can be decoded
         — so damage here is fatal even in Lenient mode. *)
      let dict : (int, Code.t) Hashtbl.t = Hashtbl.create 64 in
      (match String.split_on_char ' ' (next "dict header") with
      | [ "dict"; n; crc ] ->
        let n = parse_int ~section:"dict" n in
        let running = ref Crc32.empty in
        let raw =
          List.init n (fun _ ->
              let l = next "dict entries" in
              running :=
                Crc32.update !running (l ^ "\n") ~pos:0
                  ~len:(String.length l + 1);
              l)
        in
        let actual = Crc32.to_hex !running in
        if actual <> crc then
          fail (Checksum_mismatch { section = "dict"; expected = crc; actual });
        List.iter
          (fun l ->
            match String.split_on_char '\t' l with
            | [ code; v ] -> (
              match int_of_string_opt code with
              | None ->
                fail
                  (malformed ~section:"dict"
                     (Printf.sprintf "bad code %S" code))
              | Some c -> (
                match decode_value v with
                | Ok v -> Hashtbl.replace dict c (Code.of_value v)
                | Error reason -> fail (malformed ~section:"dict" reason)))
            | _ -> fail (malformed ~section:"dict" "expected code<TAB>value"))
          raw
      | _ -> fail (malformed ~section:"dict" "expected 'dict <n> <crc>'"));
      (* one stored tuple field -> one current-process code *)
      let decode_field ~name ~line f : Code.t =
        let bad reason = fail (Malformed { section = name; line; reason }) in
        match int_of_string_opt f with
        | None -> bad (Printf.sprintf "bad code %S" f)
        | Some c ->
          if c land 1 = 1 then c
          else (
            match Hashtbl.find_opt dict c with
            | Some c' -> c'
            | None -> bad (Printf.sprintf "code %d not in dictionary" c))
      in
      (* sections, until the manifest line *)
      let headers = ref [] in
      (* every section header seen, kept for the manifest cross-check *)
      let sections = ref [] in
      let seen = Hashtbl.create 16 in
      let manifest_line = ref "" in
      let rec read_sections () =
        let line = next "manifest" in
        if String.length line >= 9 && String.sub line 0 9 = "manifest " then
          manifest_line := line
        else begin
          (match String.split_on_char ' ' line with
          | [ "section"; name; arity; count; crc ] ->
            let name = unescape_or ~section:"header" name in
            let arity = parse_int ~section:name arity in
            let count = parse_int ~section:name count in
            headers := (name, arity, count, crc) :: !headers;
            (* consume exactly [count] tuple lines, CRC-ing the raw bytes *)
            let running = ref Crc32.empty in
            let raw =
              List.init count (fun _ ->
                  let l = next (Printf.sprintf "tuples of section %S" name) in
                  running := Crc32.update !running (l ^ "\n") ~pos:0 ~len:(String.length l + 1);
                  l)
            in
            let actual = Crc32.to_hex !running in
            if actual <> crc then
              warn ~section:name
                (Checksum_mismatch { section = name; expected = crc; actual })
            else if Hashtbl.mem seen (name, arity) then
              warn ~section:name
                (malformed ~section:name "duplicate section")
            else begin
              (* checksum verified: now parse the tuples *)
              let base = !pos - count in
              match
                List.mapi
                  (fun i l ->
                    (* a nullary tuple (magic-rewritten call predicates
                       can be arity 0) serializes as an empty line *)
                    let fields =
                      if l = "" then [] else String.split_on_char '\t' l
                    in
                    if List.length fields <> arity then
                      fail
                        (Malformed
                           { section = name;
                             line = base + i + 1;
                             reason =
                               Printf.sprintf "expected %d fields, found %d"
                                 arity (List.length fields)
                           })
                    else
                      Array.of_list
                        (List.map
                           (decode_field ~name ~line:(base + i + 1))
                           fields))
                  raw
              with
              | tuples ->
                Hashtbl.add seen (name, arity) ();
                sections :=
                  { s_name = name; s_arity = arity; s_tuples = tuples }
                  :: !sections
              | exception Fail c when mode = Lenient ->
                warnings :=
                  { w_section = name; w_corruption = c } :: !warnings
            end;
            read_sections ()
          | _ -> fail (malformed ~section:"header" "expected 'section' or 'manifest'"))
        end
      in
      read_sections ();
      (* manifest *)
      let mcount, mcrc =
        match String.split_on_char ' ' !manifest_line with
        | [ "manifest"; n; crc ] -> (parse_int ~section:"manifest" n, crc)
        | _ -> fail (malformed ~section:"manifest" "expected 'manifest <n> <crc>'")
      in
      let running = ref Crc32.empty in
      let entries =
        List.init mcount (fun _ ->
            let l = next "manifest entries" in
            running := Crc32.update !running (l ^ "\n") ~pos:0 ~len:(String.length l + 1);
            match String.split_on_char '\t' l with
            | [ name; arity; count; crc ] ->
              ( unescape_or ~section:"manifest" name,
                parse_int ~section:"manifest" arity,
                parse_int ~section:"manifest" count,
                crc )
            | _ -> fail (malformed ~section:"manifest" "expected 4 fields"))
      in
      let actual = Crc32.to_hex !running in
      if actual <> mcrc then
        fail (Checksum_mismatch { section = "manifest"; expected = mcrc; actual });
      (* end marker *)
      (match next "end marker" with
      | l when l = "end " ^ magic -> ()
      | _ -> fail (Truncated "end marker"));
      if !pos <> nlines then
        fail (malformed ~section:"trailer" "trailing data after end marker");
      (* cross-check: the manifest must repeat the section headers exactly *)
      let headers = List.rev !headers in
      if List.length headers <> List.length entries then
        fail
          (Manifest_mismatch
             { section = "manifest";
               reason =
                 Printf.sprintf "%d sections in the body, %d in the manifest"
                   (List.length headers) (List.length entries)
             });
      List.iter2
        (fun (hn, ha, hc, hcrc) (mn, ma, mc, mcrc) ->
          if hn <> mn || ha <> ma || hc <> mc || hcrc <> mcrc then
            fail
              (Manifest_mismatch
                 { section = hn;
                   reason =
                     Printf.sprintf
                       "body has %s/%d (%d tuples, crc %s); manifest has %s/%d \
                        (%d tuples, crc %s)"
                       hn ha hc hcrc mn ma mc mcrc
                 }))
        headers entries;
      { meta; sections = List.rev !sections; warnings = List.rev !warnings }
    with
    | contents -> Ok contents
    | exception Fail c -> Error c)

(* ---------------------------------------------------------------- *)
(* Database convenience *)

let rel_prefix = "rel:"

let save_database ?(meta = []) db path =
  let sections =
    List.map
      (fun pred ->
        (rel_prefix ^ Pred.name pred, Pred.arity pred, Database.tuples db pred))
      (Database.preds db)
  in
  write ~meta:(("kind", "database") :: meta) ~sections path

let database_of_contents contents =
  let db = Database.create () in
  List.iter
    (fun s ->
      let n = String.length rel_prefix in
      if String.length s.s_name > n && String.sub s.s_name 0 n = rel_prefix
      then begin
        let pred =
          Pred.make (String.sub s.s_name n (String.length s.s_name - n))
            s.s_arity
        in
        List.iter (fun t -> ignore (Database.add db pred t)) s.s_tuples
      end)
    contents.sections;
  db

let load_database ?mode path =
  Result.map
    (fun contents -> (database_of_contents contents, contents.warnings))
    (read ?mode path)

let load_database_meta ?mode path =
  Result.map
    (fun contents ->
      (database_of_contents contents, contents.meta, contents.warnings))
    (read ?mode path)

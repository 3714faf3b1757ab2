open Datalog_ast

let magic = "ALEXWAL"
let format_version = 1
let header = Printf.sprintf "%s %d\n" magic format_version

type mode = Strict | Lenient

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

type damage =
  | Cut_short of string
  | Checksum of { expected : string; actual : string }
  | Unparsable of string

let describe_damage = function
  | Cut_short reason | Unparsable reason -> reason
  | Checksum { expected; actual } ->
    Printf.sprintf "frame checksum mismatch (expected %s, got %s)" expected
      actual

type corruption =
  | Not_a_log of string
  | Unsupported_version of int
  | Damaged of { offset : int; damage : damage }

let describe_corruption = function
  | Not_a_log msg -> Printf.sprintf "not a write-ahead log: %s" msg
  | Unsupported_version v ->
    Printf.sprintf "unsupported log format version %d (this build reads %d)" v
      format_version
  | Damaged { offset; damage } ->
    Printf.sprintf "log damaged at byte %d: %s" offset (describe_damage damage)

type tail = Clean | Torn of { at : int; reason : string }

let unix_msg fn e = Printf.sprintf "%s: %s" fn (Unix.error_message e)

let op_name = function `Add -> "add" | `Remove -> "remove"

let op_of_name = function
  | "add" -> Some `Add
  | "remove" -> Some `Remove
  | _ -> None

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
(* Atomic install *)

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
    Error (unix_msg fn e)

(* ---------------------------------------------------------------- *)
(* Frames *)

let frame body =
  Printf.sprintf "frame %d %s\n" (String.length body)
    (Crc32.to_hex (Crc32.string body))
  ^ body

let install path body =
  let data = header ^ frame body in
  Result.map (fun () -> String.length data) (atomic_write_string path data)

type stop = End | Stopped of { at : int; damage : damage }

let scan data =
  let len = String.length data in
  let hlen = String.length header in
  if len >= hlen && String.sub data 0 hlen = header then begin
    let rec frames pos acc =
      let stopped damage = (List.rev acc, Stopped { at = pos; damage }) in
      if pos >= len then (List.rev acc, End)
      else
        match String.index_from_opt data pos '\n' with
        | None -> stopped (Cut_short "truncated frame header")
        | Some nl -> (
          let malformed () = stopped (Unparsable "malformed frame header") in
          match String.split_on_char ' ' (String.sub data pos (nl - pos)) with
          | [ "frame"; n_s; crc_s ] -> (
            match (int_of_string_opt n_s, Crc32.of_hex crc_s) with
            | Some n, Some crc when n >= 0 ->
              let bstart = nl + 1 in
              if n > len - bstart then stopped (Cut_short "truncated frame body")
              else
                let body = String.sub data bstart n in
                let actual = Crc32.string body in
                if actual <> crc then
                  stopped
                    (Checksum
                       { expected = Crc32.to_hex crc; actual = Crc32.to_hex actual })
                else frames (bstart + n) ((pos, body) :: acc)
            | _ -> malformed ())
          | _ -> malformed ())
    in
    Ok (frames hlen [])
  end
  else
    (* a missing, torn or foreign magic line, unless it names another
       version of this format *)
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
    | _ -> Error (Not_a_log "missing, torn or foreign header")

(* ---------------------------------------------------------------- *)
(* Fact lines *)

type lines = { ndict : int; nfacts : int; text : string; fresh : int list }

let fact_lines ~emitted iter =
  let dict = Buffer.create 256 in
  let facts = Buffer.create 1024 in
  let fresh_set = Hashtbl.create 16 in
  let fresh = ref [] in
  let nfacts = ref 0 in
  (* facts arrive grouped by name: escape each name once per run *)
  let last = ref ("", -1) in
  let prefix = ref "" in
  iter (fun name arity (tuple : Tuple.t) ->
      if Array.length tuple <> arity then
        invalid_arg
          (Printf.sprintf "Wal.fact_lines: tuple of width %d for %s/%d"
             (Array.length tuple) name arity);
      (let last_name, last_arity = !last in
       if name != last_name || arity <> last_arity then begin
         last := (name, arity);
         prefix := Printf.sprintf "f %s\t%d" (escape name) arity
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
                 (encode_value (Code.to_value c)))
          end;
          Buffer.add_char facts '\t';
          Code.add_digits facts c)
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
  let last = ref ("", "") in
  List.map
    (fun line ->
      match String.split_on_char '\t' line with
      | name_field :: arity_s :: code_fields -> (
        let name_esc = strip_prefix ~tag:"f " name_field in
        let name =
          if fst !last = name_esc then snd !last
          else
            match unescape name_esc with
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

let body_lines body =
  match List.rev (String.split_on_char '\n' body) with
  (* the body ends with a newline, so the split has a trailing "" *)
  | "" :: rest -> List.rev rest
  | _ -> bad "frame body does not end with a newline"

(* ---------------------------------------------------------------- *)
(* Meta frames: a head line, key/value lines, then fact lines *)

let meta_body head meta lines =
  String.concat ""
    (Printf.sprintf "%s %d %d %d\n" head (List.length meta) lines.ndict
       lines.nfacts
    :: List.map
         (fun (k, v) -> Printf.sprintf "m %s\t%s\n" (escape k) (escape v))
         meta
    @ [ lines.text ])

let unescape_exn s =
  match unescape s with Ok v -> v | Error reason -> bad "%s" reason

let decode_meta_body_exn ~dict body =
  let head, rest =
    match body_lines body with
    | [] -> bad "empty frame body"
    | head :: rest -> (head, rest)
  in
  let words, nmeta, ndict, nfacts =
    match List.rev (String.split_on_char ' ' head) with
    | nf :: nd :: nm :: words -> (
      match (int_of_string_opt nm, int_of_string_opt nd, int_of_string_opt nf) with
      | Some nm, Some nd, Some nf when nm >= 0 && nd >= 0 && nf >= 0 ->
        (List.rev words, nm, nd, nf)
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

let decode_meta_body ~dict body =
  match decode_meta_body_exn ~dict body with
  | frame -> Ok frame
  | exception Bad reason -> Error reason

(* ---------------------------------------------------------------- *)
(* Base frames *)

let base_body meta db =
  let lines =
    fact_lines ~emitted:(Hashtbl.create 1) (fun emit ->
        Database.iter
          (fun pred rel ->
            Relation.iter (emit (Pred.name pred) (Pred.arity pred)) rel)
          db)
  in
  (meta_body "base" meta lines, lines.fresh)

let is_base body = String.starts_with ~prefix:"base " body

let decode_base ~dict body =
  let words, meta, facts = decode_meta_body_exn ~dict body in
  if words <> [ "base" ] then bad "malformed base frame head";
  let db = Database.create () in
  List.iter
    (fun (name, arity, tuple) ->
      ignore (Database.add db (Pred.make name arity) tuple))
    facts;
  (meta, db)

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
      (match key with None -> "-" | Some k -> "k:" ^ escape k)
    ^ lines.text,
    lines.fresh )

(* Decode one CRC-verified body; folds its [d] lines into [dict] with
   replace semantics (a restart's writer re-emits codes the dead process
   already defined, overriding them for every later frame). *)
let decode_frame ~dict body =
  match
    let head, rest =
      match body_lines body with [] -> bad "empty frame body" | h :: r -> (h, r)
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
              match unescape (String.sub k 2 (String.length k - 2)) with
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

type log = {
  base : ((string * string) list * Database.t) option;
  entries : entry list;
  base_end : int;
  valid_bytes : int;
  tail : tail;
}

let load ?(mode = Strict) path =
  let empty =
    { base = None; entries = []; base_end = 0; valid_bytes = 0; tail = Clean }
  in
  if not (Sys.file_exists path) then Ok empty
  else
    match Faults.read_file path with
    | exception Sys_error msg -> Error (Not_a_log msg)
    | data -> (
      let len = String.length data and hlen = String.length header in
      match scan data with
      | Error (Not_a_log reason)
        when mode = Lenient && len < hlen && data = String.sub header 0 len ->
        (* torn creation: recover to an empty log *)
        Ok { empty with tail = Torn { at = 0; reason } }
      | Error c -> Error c
      | Ok (frames, stop) -> (
        let dict : (int, Code.t) Hashtbl.t = Hashtbl.create 64 in
        (* damage is a torn tail only where a crash can have cut a
           transaction short: never in a base (installed atomically), so
           a first frame is salvaged only if its body, as far as it is on
           disk, starts like a transaction or is still zero-filled (a
           power loss before its block was written) *)
        let torn at =
          at > hlen
          ||
          match String.index_from_opt data at '\n' with
          | None -> true
          | Some nl ->
            let n = min 4 (len - nl - 1) in
            let visible = String.sub data (nl + 1) n in
            visible = String.sub "txn " 0 n || visible = String.make n '\000'
        in
        let based =
          match frames with
          | (at, body) :: rest when is_base body -> (
            match decode_base ~dict body with
            | base ->
              (* the frame header line, then the body *)
              let base_end = String.index_from data at '\n' + 1 + String.length body in
              Ok (Some base, base_end, rest)
            | exception Bad reason ->
              Error (Damaged { offset = at; damage = Unparsable reason }))
          | _ -> Ok (None, hlen, frames)
        in
        match based with
        | Error _ as e -> e
        | Ok (base, base_end, frames) ->
          let finish acc valid_bytes tail =
            Ok { base; entries = List.rev acc; base_end; valid_bytes; tail }
          in
          let stopped acc ~at damage =
            if mode = Lenient && torn at then
              finish acc at (Torn { at; reason = describe_damage damage })
            else Error (Damaged { offset = at; damage })
          in
          let rec decode acc = function
            | [] -> (
              match stop with
              | End -> finish acc len Clean
              | Stopped { at; damage } -> stopped acc ~at damage)
            | (at, body) :: rest -> (
              match decode_frame ~dict body with
              | Ok entry -> decode (entry :: acc) rest
              | Error reason -> stopped acc ~at (Unparsable reason))
          in
          decode [] frames))

(* ---------------------------------------------------------------- *)
(* Appending *)

type t = {
  w_path : string;
  policy : fsync_policy;
  mutable oc : out_channel;
  mutable pos : int;
  mutable base_end : int;  (* where the transaction frames start *)
  written : (int, unit) Hashtbl.t;
      (* even codes already emitted since this writer opened (or, after
         a rotation, that the new base defines) *)
  mutable dirty : bool;
  mutable last_sync : float;
  mutable wedged : string option;
  mutable last_append : (int * int list) option;  (* pre-size, fresh codes *)
}

let size t = t.pos
let appended t = t.pos - t.base_end
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

let open_for_append ?(fsync = Always) ?(base_end = 0) ~valid_bytes path =
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
      base_end = (if valid = 0 then hlen else max base_end hlen);
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

(* whether [path] still names the file [oc] writes to *)
let same_file oc path =
  match (Unix.fstat (Unix.descr_of_out_channel oc), Unix.stat path) with
  | a, b -> a.Unix.st_dev = b.Unix.st_dev && a.Unix.st_ino = b.Unix.st_ino
  | exception Unix.Unix_error _ -> false

let reopen t ~codes =
  match check_wedged t with
  | Error _ as e -> e
  | Ok () when same_file t.oc t.w_path -> Ok ()
  | Ok () -> (
    Out_channel.close_noerr t.oc;
    match
      let oc = open_out_gen [ Open_wronly; Open_binary ] 0o644 t.w_path in
      let len = out_channel_length oc in
      seek_out oc len;
      (oc, len)
    with
    | oc, len ->
      t.oc <- oc;
      t.pos <- len;
      t.base_end <- len;
      Hashtbl.reset t.written;
      List.iter (fun c -> Hashtbl.replace t.written c ()) codes;
      t.dirty <- false;
      t.last_append <- None;
      Ok ()
    | exception Sys_error msg -> wedge t msg
    | exception Unix.Unix_error (e, fn, _) -> wedge t (unix_msg fn e))

let close t = Out_channel.close_noerr t.oc

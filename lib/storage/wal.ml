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

exception Bad of string

let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

(* Readers over a slice [s.[a..b)] of a frame body: they cut out nothing
   the result does not keep, and raise [Bad] on malformed input. *)

let unescape_sub s a b =
  let rec plain i = i >= b || (s.[i] <> '\\' && plain (i + 1)) in
  if plain a then String.sub s a (b - a)
  else begin
    let buf = Buffer.create (b - a) in
    let rec go i =
      if i < b then
        if s.[i] <> '\\' then begin
          Buffer.add_char buf s.[i];
          go (i + 1)
        end
        else if i + 1 >= b then bad "dangling escape"
        else begin
          (match s.[i + 1] with
          | '\\' -> Buffer.add_char buf '\\'
          | 't' -> Buffer.add_char buf '\t'
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | 's' -> Buffer.add_char buf ' '
          | c -> bad "bad escape '\\%c'" c);
          go (i + 2)
        end
    in
    go a;
    Buffer.contents buf
  end

let unescape s =
  match unescape_sub s 0 (String.length s) with
  | v -> Ok v
  | exception Bad reason -> Error reason

(* A decimal of at most 18 digits cannot overflow: read it in place.
   Anything else ([+], [0x], [_], a longer or malformed field) goes to
   [int_of_string_opt], so a field reads exactly as the format has
   always read it. *)
let rec digits s i b v =
  if i = b then v
  else
    match s.[i] with
    | '0' .. '9' as c -> digits s (i + 1) b ((v * 10) + Char.code c - 48)
    | _ -> -1

let int_sub ~what s a b =
  let d = if a < b && s.[a] = '-' then a + 1 else a in
  let v = if b - d >= 1 && b - d <= 18 then digits s d b 0 else -1 in
  if v >= 0 then if d > a then -v else v
  else
    match int_of_string_opt (String.sub s a (b - a)) with
    | Some v -> v
    | None -> bad "bad %s %S" what (String.sub s a (b - a))

let encode_value = function
  | Value.Int i -> "i:" ^ string_of_int i
  | Value.Sym s -> "s:" ^ escape (Symbol.name s)

let value_sub s a b =
  if b - a < 2 || s.[a + 1] <> ':' then
    bad "value %S lacks a type tag" (String.sub s a (b - a))
  else
    match s.[a] with
    | 'i' -> Value.int (int_sub ~what:"integer" s (a + 2) b)
    | 's' -> Value.sym (unescape_sub s (a + 2) b)
    | c -> bad "unknown value tag '%c'" c

let decode_value s =
  match value_sub s 0 (String.length s) with
  | v -> Ok v
  | exception Bad reason -> Error reason

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

type span = { at : int; pos : int; len : int }

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
                let actual = Crc32.update Crc32.empty data ~pos:bstart ~len:n in
                if actual <> crc then
                  stopped
                    (Checksum
                       { expected = Crc32.to_hex crc; actual = Crc32.to_hex actual })
                else
                  frames (bstart + n) ({ at = pos; pos = bstart; len = n } :: acc)
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

(* ---------------------------------------------------------------- *)
(* Decoding: one cursor over a CRC-verified body

   The reader walks the body once.  Fields are read in place
   ({!int_sub}, {!unescape_sub}); a fact's codes go straight into its
   tuple, and a frame's tuples into one array cut into runs of one name
   and arity, so the caller resolves a relation once per run.  Nothing
   is handed out before the whole body has decoded, so a frame that
   fails half-way leaves the caller's state at the previous frame; the
   [d] lines are folded into [dict] as they are read (a failed frame
   ends a replay, so its half-folded dictionary is never used). *)

type cursor = { s : string; mutable next : int; stop : int }

let cursor s ~pos ~len =
  if len = 0 then bad "empty frame body";
  if s.[pos + len - 1] <> '\n' then
    bad "frame body does not end with a newline";
  { s; next = pos; stop = pos + len }

(* the index of the '\n' ending the line at the cursor: the body ends
   with one, so a line starting before [stop] has one *)
let line_end c =
  if c.next >= c.stop then bad "frame line count mismatch";
  String.index_from c.s c.next '\n'

(* the first '\t' in [s.[a..b)], or [b] *)
let rec next_tab s a b =
  if a >= b || s.[a] = '\t' then a else next_tab s (a + 1) b

(* the line's space-separated words (a frame head) *)
let head_words c =
  let s = c.s and nl = line_end c in
  let rec go i stop acc =
    if i < c.next then String.sub s c.next (stop - c.next) :: acc
    else if s.[i] = ' ' then
      go (i - 1) i (String.sub s (i + 1) (stop - i - 1) :: acc)
    else go (i - 1) stop acc
  in
  let words = go (nl - 1) nl [] in
  c.next <- nl + 1;
  words

let count ~what w =
  let n = int_sub ~what w 0 (String.length w) in
  if n < 0 then bad "negative %s" what;
  n

(* [tag] (two characters) starts the field [s.[a..b)] *)
let expect_tag s a b tag =
  if b - a < 2 || s.[a] <> tag.[0] || s.[a + 1] <> tag.[1] then
    bad "expected a %S line" (String.trim tag)

(* m <escaped key><TAB><escaped value> *)
let read_meta c =
  let s = c.s and nl = line_end c in
  let tab = next_tab s c.next nl in
  if tab = nl || next_tab s (tab + 1) nl <> nl then bad "malformed meta line";
  expect_tag s c.next tab "m ";
  let kv = (unescape_sub s (c.next + 2) tab, unescape_sub s (tab + 1) nl) in
  c.next <- nl + 1;
  kv

(* d <code><TAB><tagged value> *)
let read_dict ~dict c =
  let s = c.s and nl = line_end c in
  let tab = next_tab s c.next nl in
  if tab = nl || next_tab s (tab + 1) nl <> nl then
    bad "malformed dictionary line";
  expect_tag s c.next tab "d ";
  let stored = int_sub ~what:"dictionary code" s (c.next + 2) tab in
  let v =
    try value_sub s (tab + 1) nl
    with Bad reason -> bad "bad dictionary value: %s" reason
  in
  Hashtbl.replace dict stored (Code.of_value v);
  c.next <- nl + 1

let code ~dict s a b : Code.t =
  let c = int_sub ~what:"code" s a b in
  if c land 1 = 1 then c
  else
    (* even codes are process-local: resolve through the running
       dictionary, which later [d] lines may have overridden *)
    try Hashtbl.find dict c with Not_found -> bad "code %d not in dictionary" c

type facts = {
  tuples : Tuple.t array;
  runs : (string * int * int) list;  (* name, arity, index of the first tuple *)
}

let iter_runs facts f =
  let rec go = function
    | [] -> ()
    | (name, arity, first) :: rest ->
      let stop =
        match rest with
        | (_, _, next) :: _ -> next
        | [] -> Array.length facts.tuples
      in
      f name arity facts.tuples first (stop - first);
      go rest
  in
  go facts.runs

(* [s.[a .. a + n)] and [s.[a' .. a' + n)] are the same bytes *)
let rec same_bytes s a a' n =
  n = 0 || (s.[a] = s.[a'] && same_bytes s (a + 1) (a' + 1) (n - 1))

(* [ndict] dictionary lines, then [nfacts] fact lines
   [f <escaped name><TAB><arity>[<TAB><code>...]] *)
let read_facts ~dict c ~ndict ~nfacts =
  for _ = 1 to ndict do
    read_dict ~dict c
  done;
  (* no more lines than bytes are left: a damaged count cannot size the
     array *)
  if nfacts > c.stop - c.next then bad "frame line count mismatch";
  let s = c.s in
  let tuples = Array.make nfacts [||] in
  let runs = ref [] in
  (* the current run: its escaped name as a slice of [s], and its arity *)
  let ra = ref 0 and rb = ref (-1) and rarity = ref (-1) in
  for i = 0 to nfacts - 1 do
    let nl = line_end c in
    let tab = next_tab s c.next nl in
    if tab = nl then bad "malformed fact line";
    expect_tag s c.next tab "f ";
    let na = c.next + 2 in
    let atab = next_tab s (tab + 1) nl in
    let arity = int_sub ~what:"arity" s (tab + 1) atab in
    if arity < 0 || arity > nl - atab then bad "fact with %d fields" arity;
    if
      arity <> !rarity
      || tab - na <> !rb - !ra
      || not (same_bytes s na !ra (tab - na))
    then begin
      runs := (unescape_sub s na tab, arity, i) :: !runs;
      ra := na;
      rb := tab;
      rarity := arity
    end;
    let tuple = Array.make arity 0 in
    let p = ref atab in
    for j = 0 to arity - 1 do
      if !p >= nl then bad "fact with fewer than %d fields" arity;
      let e = next_tab s (!p + 1) nl in
      tuple.(j) <- code ~dict s (!p + 1) e;
      p := e
    done;
    if !p <> nl then bad "fact with more than %d fields" arity;
    tuples.(i) <- tuple;
    c.next <- nl + 1
  done;
  { tuples; runs = List.rev !runs }

(* [v], once the cursor has read the whole body *)
let consumed c v =
  if c.next <> c.stop then bad "frame line count mismatch";
  v

let decode_meta_exn ~dict s ~pos ~len =
  let c = cursor s ~pos ~len in
  let kind, nmeta, ndict, nfacts =
    match List.rev (head_words c) with
    | nf :: nd :: nm :: words ->
      ( String.concat " " (List.rev words),
        count ~what:"meta count" nm,
        count ~what:"dictionary count" nd,
        count ~what:"fact count" nf )
    | _ -> bad "malformed frame head"
  in
  let rec metas n acc =
    if n = 0 then List.rev acc else metas (n - 1) (read_meta c :: acc)
  in
  let meta = metas nmeta [] in
  let facts = read_facts ~dict c ~ndict ~nfacts in
  consumed c (kind, meta, facts)

let decode_meta_body ~dict s ~pos ~len =
  match decode_meta_exn ~dict s ~pos ~len with
  | frame -> Ok frame
  | exception Bad reason -> Error reason

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

let is_base data (span : span) =
  span.len >= 5 && String.sub data span.pos 5 = "base "

let decode_base ~dict data (span : span) =
  let kind, meta, facts =
    decode_meta_exn ~dict data ~pos:span.pos ~len:span.len
  in
  if kind <> "base" then bad "malformed base frame head";
  let db = Database.create () in
  iter_runs facts (fun name arity tuples first n ->
      let rel = Database.rel db (Pred.make name arity) in
      for i = first to first + n - 1 do
        ignore (Relation.insert rel tuples.(i))
      done);
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

(* Decode one CRC-verified transaction body; its [d] lines fold into
   [dict] with replace semantics (a restart's writer re-emits codes the
   dead process already defined, overriding them for every later
   frame). *)
let decode_txn ~dict s ~pos ~len =
  match
    let c = cursor s ~pos ~len in
    match head_words c with
    | [ "txn"; id; opn; nf; nd; key ] -> (
      match op_of_name opn with
      | None -> bad "malformed txn line"
      | Some op ->
        let txn = int_sub ~what:"transaction id" id 0 (String.length id) in
        let nfacts = count ~what:"fact count" nf in
        let ndict = count ~what:"dictionary count" nd in
        let key =
          match key with
          | "-" -> None
          | k when String.length k >= 2 && String.sub k 0 2 = "k:" -> (
            try Some (unescape_sub k 2 (String.length k))
            with Bad reason -> bad "bad idempotency key: %s" reason)
          | _ -> bad "bad idempotency key field"
        in
        let facts = read_facts ~dict c ~ndict ~nfacts in
        let atoms = ref [] in
        iter_runs facts (fun name arity tuples first n ->
            let pred = Pred.make name arity in
            for i = first to first + n - 1 do
              atoms := Tuple.to_atom pred tuples.(i) :: !atoms
            done);
        consumed c
          { e_txn = txn; e_op = op; e_key = key; e_facts = List.rev !atoms })
    | _ -> bad "malformed txn line"
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
          | span :: rest when is_base data span -> (
            match decode_base ~dict data span with
            | base -> Ok (Some base, span.pos + span.len, rest)
            | exception Bad reason ->
              Error (Damaged { offset = span.at; damage = Unparsable reason }))
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
            | { at; pos; len } :: rest -> (
              match decode_txn ~dict data ~pos ~len with
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

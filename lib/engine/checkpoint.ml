open Datalog_ast
open Datalog_storage

exception Save_error of string

type table = Pred.t * (int * Value.t) list * Tuple.t list

(* The log a session appends to once its base frame is installed: the
   database the base imaged (frames only make sense against that object)
   and, per relation, how far into its insertion order the log reaches. *)
type log = {
  l_db : Database.t;
  l_context : string * string * string;  (* strategy, query, evaluator *)
  marks : (Relation.t * int * int) Pred.Tbl.t;
      (* relation, insertion mark, cardinality at the last frame *)
  emitted : (int, unit) Hashtbl.t;  (* dictionary codes already logged *)
  mutable bytes : int;  (* length of the log on disk *)
}

type t = {
  active : bool;
  cpath : string;
  every : int;
  kill_after_save : int option;
  mutable strategy : string;
  mutable query : string;
  mutable evaluator : string;
  mutable stratum : int;
  mutable rounds : int;
  mutable nsaves : int;
  mutable counters : Counters.t;
  mutable log : log option;
}

let none =
  { active = false;
    cpath = "";
    every = 1;
    kill_after_save = None;
    strategy = "";
    query = "";
    evaluator = "";
    stratum = 0;
    rounds = 0;
    nsaves = 0;
    counters = Counters.create ();
    log = None
  }

let create ~path ?(every = 1) ?kill_after_save () =
  if every < 1 then invalid_arg "Checkpoint.create: every < 1";
  { none with active = true; cpath = path; every; kill_after_save;
    counters = Counters.create () }

let is_active c = c.active
let path c = c.cpath
let saves c = c.nsaves

let set_context c ~strategy ~query =
  c.strategy <- strategy;
  c.query <- query

let set_evaluator c e = c.evaluator <- e
let set_stratum c s = c.stratum <- s
let set_counters c cnt = c.counters <- cnt

(* ---------------------------------------------------------------- *)
(* Frames: a {!Wal} log whose frame bodies are

     ckpt <base|round> <nmeta> <ndict> <nfacts>
     m <escaped key><TAB><escaped value>      (nmeta lines)
     d ... / f ...                            ({!Wal.fact_lines})

   with facts in sections "db:<pred>" (a base: the whole database; a
   round: what was added since the previous frame), "delta:<pred>" and
   "tbl:<i>", whose call pattern is meta key "tbl:<i>". *)

let encode_call pred bound =
  String.concat " "
    (Printf.sprintf "%s %d" (Wal.escape (Pred.name pred))
       (Pred.arity pred)
    :: List.map
         (fun (i, v) -> Printf.sprintf "%d=%s" i (Wal.encode_value v))
         bound)

let decode_call s =
  let ( let* ) = Result.bind in
  match String.split_on_char ' ' s with
  | name :: arity :: bound ->
    let* name = Wal.unescape name in
    let* arity =
      Option.to_result ~none:("bad arity in call " ^ s)
        (int_of_string_opt arity)
    in
    let* bound =
      List.fold_left
        (fun acc field ->
          let* acc = acc in
          match String.index_opt field '=' with
          | None -> Error ("bad binding " ^ field)
          | Some i ->
            let* pos =
              Option.to_result
                ~none:("bad position in " ^ field)
                (int_of_string_opt (String.sub field 0 i))
            in
            let* v =
              Wal.decode_value
                (String.sub field (i + 1) (String.length field - i - 1))
            in
            Ok ((pos, v) :: acc))
        (Ok []) bound
    in
    Ok (Pred.make name arity, List.rev bound)
  | _ -> Error ("bad call encoding " ^ s)

exception Reimage

(* Per relation of [db], the tuples added since [marks] and the new
   mark.  [Reimage] when the database is no longer one the log can
   extend: a relation was replaced or shrank. *)
let growth marks db =
  let kept = ref 0 in
  let runs =
    List.map
      (fun pred ->
        let rel = Database.rel db pred in
        let mark, card =
          match Pred.Tbl.find_opt marks pred with
          | None -> (0, 0)
          | Some (r, mark, card) ->
            if r != rel then raise Reimage;
            incr kept;
            (mark, card)
        in
        let added, mark' = Relation.added_since rel mark in
        if card + List.length added <> Relation.cardinal rel then raise Reimage;
        (pred, rel, added, mark'))
      (Database.preds db)
  in
  if !kept <> Pred.Tbl.length marks then raise Reimage;
  runs

let delta_is_added delta runs =
  let added = ref 0 in
  List.for_all
    (fun (pred, _, tuples, _) ->
      added := !added + List.length tuples;
      List.equal ( == ) (Database.tuples delta pred) tuples)
    runs
  && Database.total_facts delta = !added

let save c ~db ~delta ~tables =
  let context = (c.strategy, c.query, c.evaluator) in
  (* a session's first save, or one over another database or context,
     installs a base; later saves append a round frame *)
  let continued =
    match c.log with
    | Some l when l.l_db == db && l.l_context = context -> (
      match growth l.marks db with
      | runs -> Some (l, runs)
      | exception Reimage -> None)
    | _ -> None
  in
  let base, log, runs =
    match continued with
    | Some (l, runs) -> (false, l, runs)
    | None ->
      let l =
        { l_db = db;
          l_context = context;
          marks = Pred.Tbl.create 16;
          emitted = Hashtbl.create 64;
          bytes = 0
        }
      in
      (true, l, growth l.marks db)
  in
  (* at a round boundary of an every-round semi-naive run the delta is
     exactly what the round added to [db]: log those facts once *)
  let delta_mode =
    match delta with
    | None -> "none"
    | Some d when (not base) && delta_is_added d runs -> "added"
    | Some _ -> "some"
  in
  let lines =
    Wal.fact_lines ~emitted:log.emitted (fun emit ->
        let section prefix pred tuples =
          let name = prefix ^ Pred.name pred in
          List.iter (emit name (Pred.arity pred)) tuples
        in
        List.iter (fun (pred, _, added, _) -> section "db:" pred added) runs;
        (match delta with
        | Some d when delta_mode = "some" ->
          Database.iter
            (fun pred rel -> section "delta:" pred (Relation.to_list rel))
            d
        | _ -> ());
        List.iteri
          (fun i (pred, _, tuples) ->
            List.iter (emit (Printf.sprintf "tbl:%d" i) (Pred.arity pred)) tuples)
          tables)
  in
  let cnt = c.counters in
  let meta =
    (if base then
       [ ("strategy", c.strategy); ("query", c.query); ("evaluator", c.evaluator) ]
     else [])
    @ [ ("stratum", string_of_int c.stratum);
        ("rounds", string_of_int c.rounds);
        ("c_facts", string_of_int cnt.Counters.facts_derived);
        ("c_firings", string_of_int cnt.Counters.firings);
        ("c_probes", string_of_int cnt.Counters.probes);
        ("c_scanned", string_of_int cnt.Counters.scanned);
        ("c_iterations", string_of_int cnt.Counters.iterations);
        ("delta", delta_mode)
      ]
    @ List.mapi
        (fun i (pred, bound, _) ->
          (Printf.sprintf "tbl:%d" i, encode_call pred bound))
        tables
  in
  let body =
    Wal.meta_body (if base then "ckpt base" else "ckpt round") meta lines
  in
  let written =
    if base then Wal.install c.cpath body
    else Wal.append_frame c.cpath ~at:log.bytes body
  in
  match written with
  | Error msg ->
    (* the next save starts a fresh base rather than trust the tail *)
    c.log <- None;
    raise (Save_error msg)
  | Ok bytes -> (
    log.bytes <- bytes;
    List.iter (fun code -> Hashtbl.replace log.emitted code ()) lines.Wal.fresh;
    List.iter
      (fun (pred, rel, _, mark) ->
        Pred.Tbl.replace log.marks pred (rel, mark, Relation.cardinal rel))
      runs;
    c.log <- Some log;
    c.nsaves <- c.nsaves + 1;
    match c.kill_after_save with
    | Some n when c.nsaves >= n ->
      raise
        (Faults.Crashed
           (Printf.sprintf "simulated kill after checkpoint save %d" c.nsaves))
    | _ -> ())

let on_round c ~db ~delta =
  if c.active then begin
    c.rounds <- c.rounds + 1;
    if c.rounds mod c.every = 0 then save c ~db ~delta ~tables:[]
  end

let on_interrupt c ~db ~delta = if c.active then save c ~db ~delta ~tables:[]

let on_step c ~db ~tables =
  if c.active then begin
    c.rounds <- c.rounds + 1;
    if c.rounds mod c.every = 0 then
      save c ~db ~delta:None ~tables:(tables ())
  end

let on_interrupt_tables c ~db ~tables =
  if c.active then save c ~db ~delta:None ~tables:(tables ())

(* ---------------------------------------------------------------- *)
(* Resume *)

type resume = {
  r_strategy : string;
  r_query : string;
  r_evaluator : string;
  r_stratum : int;
  r_rounds : int;
  r_counters : int * int * int * int * int;
  r_db : Database.t;
  r_delta : Database.t option;
  r_tables : table list;
}

let starts_with ~prefix s =
  let n = String.length prefix in
  String.length s >= n && String.sub s 0 n = prefix

let strip ~prefix s =
  let n = String.length prefix in
  if starts_with ~prefix s then Some (String.sub s n (String.length s - n))
  else None

(* One decoded, fully checked frame.  Decoding touches nothing but the
   dictionary, so a frame that fails half-way leaves the replayed state
   at the previous frame. *)
type frame = {
  f_context : (string * string * string) option;  (* base frames only *)
  f_stratum : int;
  f_rounds : int;
  f_counters : int * int * int * int * int;
  f_delta : string;
  f_calls : (string * Pred.t * (int * Value.t) list) list;  (* "tbl:<i>" *)
  f_facts : (string * int * Tuple.t) list;
}

exception Bad of string

let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

let decode_frame ~dict ~first body =
  let ok = function Ok v -> v | Error reason -> raise (Bad reason) in
  match
    let words, meta, facts = ok (Wal.decode_meta_body ~dict body) in
    let base =
      match words with
      | [ "ckpt"; ("base" | "round") as kind ] -> kind = "base"
      | _ -> bad "not a checkpoint frame: %S" (String.concat " " words)
    in
    if base <> first then
      bad
        (if first then "the log does not start with a base frame"
         else "a second base frame");
    let need k =
      match List.assoc_opt k meta with
      | Some v -> v
      | None -> bad "missing key %s" k
    in
    let need_int k =
      match int_of_string_opt (need k) with
      | Some i -> i
      | None -> bad "%s is not a number" k
    in
    let calls =
      List.filter_map
        (fun (k, v) ->
          if starts_with ~prefix:"tbl:" k then
            let pred, bound = ok (decode_call v) in
            Some (k, pred, bound)
          else None)
        meta
    in
    let arities = Hashtbl.create 8 in
    List.iter (fun (k, pred, _) -> Hashtbl.replace arities k (Pred.arity pred)) calls;
    List.iter
      (fun (name, arity, _) ->
        if starts_with ~prefix:"tbl:" name then
          match Hashtbl.find_opt arities name with
          | Some a when a = arity -> ()
          | Some _ -> bad "table %s arity mismatch" name
          | None -> bad "answers for unknown table %s" name)
      facts;
    { f_context =
        (if base then Some (need "strategy", need "query", need "evaluator")
         else None);
      f_stratum = need_int "stratum";
      f_rounds = need_int "rounds";
      f_counters =
        ( need_int "c_facts",
          need_int "c_firings",
          need_int "c_probes",
          need_int "c_scanned",
          need_int "c_iterations" );
      f_delta =
        (match need "delta" with
        | ("none" | "some" | "added") as d -> d
        | d -> bad "bad delta mode %S" d);
      f_calls = calls;
      f_facts = facts
    }
  with
  | frame -> Ok frame
  | exception Bad reason -> Error reason

(* The resume state after the last valid frame [last]; [db] holds the
   replayed database. *)
let resume_of (strategy, query, evaluator) last db =
  let delta = Database.create () in
  let answers = Hashtbl.create 8 in
  let delta_prefix = if last.f_delta = "added" then "db:" else "delta:" in
  List.iter
    (fun (name, arity, tuple) ->
      match strip ~prefix:delta_prefix name with
      | Some p -> ignore (Database.add delta (Pred.make p arity) tuple)
      | None ->
        if starts_with ~prefix:"tbl:" name then
          Hashtbl.replace answers name
            (tuple :: Option.value ~default:[] (Hashtbl.find_opt answers name)))
    last.f_facts;
  { r_strategy = strategy;
    r_query = query;
    r_evaluator = evaluator;
    r_stratum = last.f_stratum;
    r_rounds = last.f_rounds;
    r_counters = last.f_counters;
    r_db = db;
    r_delta = (if last.f_delta = "none" then None else Some delta);
    r_tables =
      List.map
        (fun (k, pred, bound) ->
          ( pred,
            bound,
            List.rev (Option.value ~default:[] (Hashtbl.find_opt answers k)) ))
        last.f_calls
  }

let load ?(mode = Snapshot.Strict) cpath =
  match Faults.read_file cpath with
  | exception Sys_error msg -> Error (Snapshot.Not_a_snapshot msg)
  | data -> (
    match Wal.scan data with
    | Error c ->
      Error
        (Snapshot.Malformed
           { section = "checkpoint header"; reason = Wal.describe_corruption c })
    | Ok (frames, stop) -> (
      let section at = Printf.sprintf "checkpoint frame at byte %d" at in
      let malformed at reason = Snapshot.Malformed { section = section at; reason } in
      let db = Database.create () in
      let dict = Hashtbl.create 64 in
      let preds = Hashtbl.create 16 in
      let install (name, arity, tuple) =
        match strip ~prefix:"db:" name with
        | None -> ()
        | Some p ->
          let pred =
            match Hashtbl.find_opt preds (name, arity) with
            | Some pred -> pred
            | None ->
              let pred = Pred.make p arity in
              Hashtbl.add preds (name, arity) pred;
              pred
          in
          ignore (Database.add db pred tuple)
      in
      (* replay base + round frames up to the first damaged one *)
      let rec replay state = function
        | [] -> (
          ( state,
            match stop with
            | Wal.End | Wal.Stopped { damage = Wal.Cut_short _; _ } -> None
            | Wal.Stopped { at; damage = Wal.Checksum { expected; actual } } ->
              Some
                ( at,
                  Snapshot.Checksum_mismatch
                    { section = section at; expected; actual } )
            | Wal.Stopped { at; damage = Wal.Unparsable reason } ->
              Some (at, malformed at reason) ))
        | (at, body) :: rest -> (
          match decode_frame ~dict ~first:(Option.is_none state) body with
          | Error reason -> (state, Some (at, malformed at reason))
          | Ok frame ->
            List.iter install frame.f_facts;
            let context =
              match (frame.f_context, state) with
              | Some context, _ | None, Some (context, _) -> context
              | None, None -> assert false (* [decode_frame ~first] *)
            in
            replay (Some (context, frame)) rest)
      in
      let resume (context, last) = resume_of context last db in
      match replay None frames with
      | None, Some (_, c) -> Error c
      | None, None -> Error (Snapshot.Truncated "checkpoint base frame")
      | Some state, None -> Ok (resume state, [])
      | Some state, Some (at, c) -> (
        match mode with
        | Snapshot.Strict -> Error c
        | Snapshot.Lenient ->
          Ok
            ( resume state,
              [ { Snapshot.w_section = section at; w_corruption = c } ] ))))

let restore_counters r (cnt : Counters.t) =
  let facts, firings, probes, scanned, iterations = r.r_counters in
  cnt.Counters.facts_derived <- facts;
  cnt.Counters.firings <- firings;
  cnt.Counters.probes <- probes;
  cnt.Counters.scanned <- scanned;
  cnt.Counters.iterations <- iterations

let resume_rounds c r = if c.active then c.rounds <- r.r_rounds

let verify_context r ~strategy ~query =
  if r.r_strategy <> strategy then
    Error
      (Printf.sprintf
         "checkpoint was taken under strategy %s; this run uses %s"
         r.r_strategy strategy)
  else if r.r_query <> query then
    Error
      (Printf.sprintf "checkpoint was taken for query %s, not %s" r.r_query
         query)
  else Ok ()

open Datalog_ast
open Datalog_storage
module Json = Datalog_engine.Json
module L = Datalog_engine.Limits
module O = Alexander.Options
module S = Alexander.Solve

type config = {
  queue_depth : int;
  session_inflight : int;
  default_budgets : Protocol.budgets;
  retry_after_s : float;
  cache_capacity : int;
  snapshot_path : string option;
  durable_acks : bool;
  wal_fsync : Wal.fsync_policy;
  wal_max_bytes : int;
  idempotency_capacity : int;
  snapshot_every_s : float;
  options : O.t;
  log : string -> unit;
}

let default_config =
  { queue_depth = 64;
    session_inflight = 16;
    default_budgets = { Protocol.no_budgets with timeout_s = Some 5.0 };
    retry_after_s = 0.1;
    cache_capacity = 128;
    snapshot_path = None;
    durable_acks = true;
    wal_fsync = Wal.Always;
    wal_max_bytes = 4 * 1024 * 1024;
    idempotency_capacity = 1024;
    snapshot_every_s = 30.0;
    options = O.default;
    log = ignore
  }

type startup_error = Corrupt_state of string | Startup_failed of string

let startup_message = function Corrupt_state msg | Startup_failed msg -> msg

type queued = {
  q_session : int;
  q_deadline : float;
  q_env : Protocol.envelope;
}

type metrics = {
  mutable queries : int;
  mutable mutations : int;
  mutable rejected : int;  (** invalid mutations (non-ground, derived) *)
  mutable expired : int;
  mutable overloaded : int;
  mutable snapshots : int;
  mutable wal_appends : int;
  mutable rotations : int;
  mutable idempotent_hits : int;
  mutable replayed : int;  (** transactions replayed from the log at start *)
}

(* What an idempotency key resolves to: enough to reconstruct the
   original ack verbatim. *)
type committed = { c_txn : int; c_op : string; c_count : int }

type t = {
  config : config;
  rules : Program.t;
      (** the rules plus the program's facts over derived predicates: the
          one source of those facts, which every engine goal seeds and
          DRed never over-deletes.  Every other fact lives in [db]. *)
  graph : Datalog_analysis.Depgraph.t;
  positive : bool;
  db : Database.t;
  cache : Cache.t;
  cnt : Datalog_engine.Counters.t;
  deps_memo : Pred.Set.t Pred.Tbl.t;
  queue : queued Queue.t;
  inflight : (int, int) Hashtbl.t;
  mutable wal : Wal.t option;
  idem : (string, committed) Hashtbl.t;
  idem_order : string Queue.t;  (** insertion order, for bounded eviction *)
  mutable txn : int;
  mutable dirty : bool;  (** in-memory state newer than the snapshot *)
  mutable last_snapshot_at : float;
  metrics : metrics;
}

let positive t = t.positive
let txn t = t.txn
let db t = t.db
let pending t = Queue.length t.queue
let cache t = t.cache
let wal_active t = t.wal <> None

let op_string = function `Add -> "add" | `Remove -> "remove"

(* ------------------------------------------------------------------ *)
(* Idempotency keys: a bounded table of committed transactions, rebuilt
   on recovery from the snapshot meta plus the replayed log, so a retry
   of an applied-but-unacked request resolves to its original ack. *)

let idem_find t key = Hashtbl.find_opt t.idem key

let idem_record t key c =
  if t.config.idempotency_capacity > 0 && not (Hashtbl.mem t.idem key) then begin
    Queue.add key t.idem_order;
    Hashtbl.replace t.idem key c;
    if Queue.length t.idem_order > t.config.idempotency_capacity then
      match Queue.take_opt t.idem_order with
      | Some oldest -> Hashtbl.remove t.idem oldest
      | None -> ()
  end

(* oldest first, so a reload preserves the eviction order *)
let idem_meta t =
  List.rev
    (Queue.fold
       (fun acc key ->
         match Hashtbl.find_opt t.idem key with
         | Some { c_txn; c_op; c_count } ->
           ("idem:" ^ key, Printf.sprintf "%d %s %d" c_txn c_op c_count)
           :: acc
         | None -> acc)
       [] t.idem_order)

let idem_of_meta meta =
  List.filter_map
    (fun (k, v) ->
      if String.length k > 5 && String.sub k 0 5 = "idem:" then
        let key = String.sub k 5 (String.length k - 5) in
        match String.split_on_char ' ' v with
        | [ txn; op; count ] -> (
          match (int_of_string_opt txn, int_of_string_opt count) with
          | Some c_txn, Some c_count ->
            Some (key, { c_txn; c_op = op; c_count })
          | _ -> None)
        | _ -> None
      else None)
    meta

(* ------------------------------------------------------------------ *)
(* Startup: warm-load or saturate *)

let program_is_positive program =
  List.for_all
    (fun r -> Rule.negative_body r = [])
    (Program.rules program)

let mode_name positive = if positive then "saturated" else "base"

(* Saturate [db] in place under [rules] (rules plus IDB facts). *)
let saturate rules db =
  match Datalog_engine.Stratified.run ~db rules with
  | Ok _ -> Ok db
  | Error msg -> Error (Startup_failed msg)

(* ------------------------------------------------------------------ *)
(* Durability *)

(* Install a log holding only a base frame with the whole state: the
   rotation of durable acks (the writer then moves onto the new file,
   whose base covers every transaction the old one logged) and the
   periodic save without them, the [snapshot] op and shutdown. *)
let snapshot_now t =
  match t.config.snapshot_path with
  | None -> Ok ()
  | Some path -> (
    let meta =
      ("mode", mode_name t.positive) :: ("txn", string_of_int t.txn)
      :: idem_meta t
    in
    let body, codes = Wal.base_body meta t.db in
    let installed = Wal.install path body in
    (* kill-point: the new log is in place, the writer not yet on it *)
    if Result.is_ok installed then Faults.point "server.rotate-installed";
    let moved =
      match t.wal with None -> Ok () | Some wal -> Wal.reopen wal ~codes
    in
    match (installed, moved) with
    | Error msg, _ | _, Error msg -> Error msg
    | Ok _, Ok () ->
      t.metrics.snapshots <- t.metrics.snapshots + 1;
      if t.wal <> None then t.metrics.rotations <- t.metrics.rotations + 1;
      t.dirty <- false;
      t.last_snapshot_at <- Unix.gettimeofday ();
      Ok ())

let maybe_rotate t =
  match t.wal with
  | Some wal when Wal.appended wal > t.config.wal_max_bytes -> (
    match snapshot_now t with
    | Ok () -> ()
    | Error msg -> t.config.log ("wal rotation failed: " ^ msg))
  | _ -> ()

let maybe_snapshot t ~now =
  match t.wal with
  | Some wal -> (
    (* group commit under the interval fsync policy *)
    match Wal.maybe_sync wal ~now with
    | Ok () -> ()
    | Error msg -> t.config.log ("wal sync failed: " ^ msg))
  | None ->
    if
      t.dirty
      && t.config.snapshot_path <> None
      && now -. t.last_snapshot_at >= t.config.snapshot_every_s
    then begin
      (* rate-limit retries on persistent I/O failure too *)
      t.last_snapshot_at <- now;
      match snapshot_now t with
      | Ok () -> ()
      | Error msg -> t.config.log ("periodic snapshot failed: " ^ msg)
    end

(* ------------------------------------------------------------------ *)
(* Admission *)

type admission = Admitted | Overloaded of float | Session_capped

let session_inflight t session =
  Option.value ~default:0 (Hashtbl.find_opt t.inflight session)

let submit t ~session ~now env =
  if Queue.length t.queue >= t.config.queue_depth then begin
    t.metrics.overloaded <- t.metrics.overloaded + 1;
    Overloaded t.config.retry_after_s
  end
  else if session_inflight t session >= t.config.session_inflight then begin
    t.metrics.overloaded <- t.metrics.overloaded + 1;
    Session_capped
  end
  else begin
    Hashtbl.replace t.inflight session (session_inflight t session + 1);
    let timeout =
      match env.Protocol.budgets.Protocol.timeout_s with
      | Some s -> Some s
      | None -> t.config.default_budgets.Protocol.timeout_s
    in
    let deadline =
      match timeout with Some s -> now +. s | None -> infinity
    in
    Queue.add { q_session = session; q_deadline = deadline; q_env = env }
      t.queue;
    Admitted
  end

let forget_session t session = Hashtbl.remove t.inflight session

(* ------------------------------------------------------------------ *)
(* Queries *)

let deps_closure t pred =
  match Pred.Tbl.find_opt t.deps_memo pred with
  | Some s -> s
  | None ->
    let s =
      List.fold_left
        (fun acc q ->
          if Datalog_analysis.Depgraph.depends_on t.graph pred q then
            Pred.Set.add q acc
          else acc)
        (Pred.Set.singleton pred)
        (Datalog_analysis.Depgraph.preds t.graph)
    in
    Pred.Tbl.add t.deps_memo pred s;
    s

let limits_of t budgets ~now ~deadline =
  let dflt = t.config.default_budgets in
  let pick get = match get budgets with Some v -> Some v | None -> get dflt in
  let timeout_s = pick (fun b -> b.Protocol.timeout_s) in
  (* queue wait counts against the budget: cap by the admission deadline *)
  let timeout_s =
    if deadline = infinity then timeout_s
    else
      let remaining = Float.max 0.001 (deadline -. now) in
      Some
        (match timeout_s with
        | Some s -> Float.min s remaining
        | None -> remaining)
  in
  let max_facts = pick (fun b -> b.Protocol.max_facts) in
  let max_iterations = pick (fun b -> b.Protocol.max_iterations) in
  let max_tuples = pick (fun b -> b.Protocol.max_tuples) in
  if
    timeout_s = None && max_facts = None && max_iterations = None
    && max_tuples = None
  then L.none
  else L.make ?timeout_s ?max_facts ?max_iterations ?max_tuples ()

let run_query t ~now ~deadline env goal engine =
  let id = env.Protocol.req_id in
  t.metrics.queries <- t.metrics.queries + 1;
  let wall () = Unix.gettimeofday () -. now in
  match (if engine then None else Cache.find t.cache goal) with
  | Some (answers, _kind) ->
    Protocol.answers_reply ~id ~goal ~answers ~cached:true ~complete:true
      ~reason:None ~txn:t.txn ~wall_s:(wall ())
  | None ->
    if t.positive && not engine then begin
      (* the saturated database already holds every answer: an indexed
         select on the goal's constants, sorted as the engine path sorts *)
      let pred = Atom.pred goal in
      let answers =
        match Database.find t.db pred with
        | None -> []
        | Some rel -> Relation.matching rel (Tuple.pattern goal)
      in
      Cache.insert t.cache goal ~deps:(deps_closure t pred) answers;
      Protocol.answers_reply ~id ~goal ~answers ~cached:false ~complete:true
        ~reason:None ~txn:t.txn ~wall_s:(wall ())
    end
    else begin
      (* the engine over the live database, prepared for this request
         only: the next mutation may replace its relations *)
      let limits = limits_of t env.Protocol.budgets ~now ~deadline in
      let options = { t.config.options with O.limits } in
      match
        S.run_prepared ~options (S.prepare_over ~base:t.db t.rules) goal
      with
      | Error e -> Protocol.error ~id (Alexander.Errors.message e)
      | Ok report ->
        let complete = not (S.incomplete report) in
        if complete then
          Cache.insert t.cache goal
            ~deps:(deps_closure t (Atom.pred goal))
            report.S.answers;
        let reason =
          match report.S.status with
          | L.Exhausted r -> Some (L.reason_name r)
          | _ -> None
        in
        Protocol.answers_reply ~id ~goal ~answers:report.S.answers ~cached:false
          ~complete ~reason ~txn:t.txn ~wall_s:(wall ())
    end

(* ------------------------------------------------------------------ *)
(* Mutations: validate, apply, persist, ack — in that order. *)

let validate_mutation t facts =
  match List.find_opt (fun a -> not (Atom.is_ground a)) facts with
  | Some a ->
    Error
      (Format.asprintf "fact %a is not ground (facts may not contain variables)"
         Atom.pp a)
  | None -> (
    match
      List.find_opt (fun a -> Program.is_idb t.rules (Atom.pred a)) facts
    with
    | Some a ->
      Error
        (Format.asprintf
           "%a is derived by a rule; only extensional facts can be added \
            or removed"
           Atom.pp a)
    | None -> Ok ())

let apply_mutation t ~limits ~on_change op facts =
  if t.positive then begin
    match op with
    | `Add -> Datalog_engine.Incremental.add_facts t.cnt ~limits ~on_change t.rules t.db facts
    | `Remove ->
      Datalog_engine.Incremental.remove_facts t.cnt ~limits ~on_change t.rules
        t.db facts
  end
  else begin
    (* base mode: the batch is plain tuple insertion / deletion *)
    let count = ref 0 in
    List.iter
      (fun a ->
        let changed =
          match op with
          | `Add -> Database.add_atom t.db a
          | `Remove -> Database.remove_atom t.db a
        in
        if changed then begin
          incr count;
          on_change (Atom.pred a)
        end)
      facts;
    Ok !count
  end

(* ------------------------------------------------------------------ *)
(* Startup: warm-load, replay, saturate *)

let load_log config path =
  if Sys.file_exists (path ^ ".wal") then
    Error
      (Corrupt_state
         (Printf.sprintf
            "%s.wal is a separate log from an older version; this version \
             keeps the whole state in %s and does not read it"
            path path))
  else
    match Wal.load ~mode:Wal.Strict path with
    | Ok log -> Ok log
    | Error c -> (
      config.log
        (Printf.sprintf "%s: strict load failed (%s); retrying lenient" path
           (Wal.describe_corruption c));
      match Wal.load ~mode:Wal.Lenient path with
      | Ok log ->
        (match log.Wal.tail with
        | Wal.Torn { at; reason } ->
          config.log
            (Printf.sprintf "%s: discarding torn tail at byte %d (%s)" path at
               reason)
        | Wal.Clean -> ());
        Ok log
      | Error c ->
        Error
          (Corrupt_state
             (Printf.sprintf "%s unreadable even leniently: %s" path
                (Wal.describe_corruption c))))

(* The base image as this program's database: the right mode, or base
   facts a positive program saturates.  An image without a mode stamp
   is only taken as base facts. *)
let database_of_base rules positive path (meta, db) =
  match List.assoc_opt "mode" meta with
  | Some m when m = mode_name positive -> Ok db
  | (Some "base" | None) when not positive -> Ok db
  | Some "base" ->
    (* the image predates the rules (or a mode change): the base facts
       are all there, so saturate them *)
    saturate rules db
  | m ->
    Error
      (Corrupt_state
         (Printf.sprintf
            "%s holds %s database but the program needs %S (base facts \
             cannot be told apart from derived ones)"
            path
            (match m with
            | Some m -> Printf.sprintf "a %S" m
            | None -> "an unstamped")
            (mode_name positive)))

(* Re-apply every logged transaction after the base, in order, under no
   budget (they all committed once already).  Ids must be consecutive:
   a gap means the log is not one writer's, and guessing would silently
   lose acked transactions. *)
let replay t path entries =
  List.fold_left
    (fun acc e ->
      match acc with
      | Error _ -> acc
      | Ok () when e.Wal.e_txn <> t.txn + 1 ->
        Error
          (Printf.sprintf "%s: transaction %d follows %d (refusing to guess)"
             path e.Wal.e_txn t.txn)
      | Ok () -> (
        match
          apply_mutation t ~limits:L.none ~on_change:ignore e.Wal.e_op
            e.Wal.e_facts
        with
        | Error msg ->
          Error
            (Printf.sprintf "%s: replaying transaction %d failed: %s" path
               e.Wal.e_txn msg)
        | Ok count ->
          t.txn <- e.Wal.e_txn;
          t.metrics.replayed <- t.metrics.replayed + 1;
          Option.iter
            (fun key ->
              idem_record t key
                { c_txn = e.Wal.e_txn; c_op = op_string e.Wal.e_op;
                  c_count = count })
            e.Wal.e_key;
          Ok ()))
    (Ok ()) entries

let start config program =
  let ( let* ) = Result.bind in
  let* () =
    Result.map_error
      (fun msgs -> Startup_failed (String.concat "\n" msgs))
      (Datalog_analysis.Safety.check_program program)
  in
  let positive = program_is_positive program in
  let derived a = Program.is_idb program (Atom.pred a) in
  let rules =
    Program.make ~facts:(List.filter derived (Program.facts program))
      (Program.rules program)
  in
  let* log =
    match config.snapshot_path with
    | None -> Ok None
    | Some path -> Result.map (fun log -> Some (path, log)) (load_log config path)
  in
  let* db, meta =
    match log with
    | Some (path, { Wal.base = Some ((meta, _) as base); _ }) ->
      Result.map
        (fun db -> (db, meta))
        (database_of_base rules positive path base)
    | _ ->
      let db = Database.of_groups (Program.fact_groups program) in
      if positive then Result.map (fun db -> (db, [])) (saturate rules db)
      else Ok (db, [])
  in
  let t =
    { config;
      rules;
      graph = Datalog_analysis.Depgraph.make program;
      positive;
      db;
      cache = Cache.create ~capacity:config.cache_capacity;
      cnt = Datalog_engine.Counters.create ();
      deps_memo = Pred.Tbl.create 32;
      queue = Queue.create ();
      inflight = Hashtbl.create 16;
      wal = None;
      idem = Hashtbl.create 64;
      idem_order = Queue.create ();
      txn =
        Option.value ~default:0
          (Option.bind (List.assoc_opt "txn" meta) int_of_string_opt);
      dirty = false;
      last_snapshot_at = Unix.gettimeofday ();
      metrics =
        { queries = 0; mutations = 0; rejected = 0; expired = 0;
          overloaded = 0; snapshots = 0; wal_appends = 0; rotations = 0;
          idempotent_hits = 0; replayed = 0 }
    }
  in
  List.iter (fun (k, c) -> idem_record t k c) (idem_of_meta meta);
  match log with
  | None -> Ok t
  | Some (path, log) -> (
    let* () =
      Result.map_error (fun msg -> Corrupt_state msg)
        (replay t path log.Wal.entries)
    in
    if t.metrics.replayed > 0 then
      config.log
        (Printf.sprintf "%s: replayed %d transaction(s), now at txn %d" path
           t.metrics.replayed t.txn);
    if not config.durable_acks then Ok t
    else
      match
        Wal.open_for_append ~fsync:config.wal_fsync ~base_end:log.Wal.base_end
          ~valid_bytes:log.Wal.valid_bytes path
      with
      | Ok wal ->
        t.wal <- Some wal;
        Ok t
      | Error msg ->
        Error (Startup_failed ("cannot open the log for append: " ^ msg)))

let create config program =
  Result.map_error startup_message (start config program)

(* ------------------------------------------------------------------ *)
(* The mutation path.  With a log: append -> fsync -> apply -> ack, so
   durability costs O(batch) and an ack means "in the log".  Without
   one: apply in memory (periodic snapshots bound the loss window). *)

let commit_mutation t ~key ~op ~count ~changed =
  t.txn <- t.txn + 1;
  if count > 0 then t.dirty <- true;
  (match key with
  | Some k ->
    idem_record t k { c_txn = t.txn; c_op = op_string op; c_count = count }
  | None -> ());
  ignore (Cache.invalidate t.cache !changed);
  maybe_rotate t

let run_mutation t ~now ~deadline env op facts =
  let id = env.Protocol.req_id in
  t.metrics.mutations <- t.metrics.mutations + 1;
  let key = env.Protocol.idem_key in
  match Option.bind key (idem_find t) with
  | Some { c_txn; c_op; c_count } ->
    (* a retry of a transaction that already committed: return the
       original ack, apply nothing *)
    t.metrics.idempotent_hits <- t.metrics.idempotent_hits + 1;
    Protocol.ack ~id ~op:c_op ~count:c_count ~txn:c_txn ?key
      ~idempotent:true ()
  | None -> (
    match validate_mutation t facts with
    | Error msg ->
      t.metrics.rejected <- t.metrics.rejected + 1;
      Protocol.error ~id msg
    | Ok () -> (
      let limits = limits_of t env.Protocol.budgets ~now ~deadline in
      let changed = ref Pred.Set.empty in
      let on_change p = changed := Pred.Set.add p !changed in
      match t.wal with
      | Some wal -> (
        match Wal.append wal ~txn:(t.txn + 1) ~op ?key facts with
        | Error msg -> Protocol.error ~id ("durability failure: " ^ msg)
        | Ok () -> (
          t.metrics.wal_appends <- t.metrics.wal_appends + 1;
          (* kill-point: the frame is in the log (and, under the always
             policy, durable), but nothing is applied or acked yet *)
          Faults.point "server.wal-synced";
          match apply_mutation t ~limits ~on_change op facts with
          | Error msg ->
            (* the batch did not apply; cut its frame back out of the
               log so replay matches memory *)
            (match Wal.truncate_last wal with
            | Ok () -> ()
            | Error tmsg ->
              t.config.log
                ("wal truncate after failed apply: " ^ tmsg));
            Protocol.error ~id msg
          | Ok count ->
            commit_mutation t ~key ~op ~count ~changed;
            (* kill-point: durable but the client never saw the ack *)
            Faults.point "server.pre-ack";
            Protocol.ack ~id ~op:(op_string op) ~count ~txn:t.txn ?key ()))
      | None -> (
        match apply_mutation t ~limits ~on_change op facts with
        | Error msg -> Protocol.error ~id msg
        | Ok count ->
          commit_mutation t ~key ~op ~count ~changed;
          Faults.point "server.pre-ack";
          Protocol.ack ~id ~op:(op_string op) ~count ~txn:t.txn ?key ())))

(* ------------------------------------------------------------------ *)
(* Dispatch *)

let stats_fields t =
  let c = Cache.stats t.cache in
  [ ("mode", Json.String (mode_name t.positive));
    ("txn", Json.Int t.txn);
    ("facts", Json.Int (Database.total_facts t.db));
    ("pending", Json.Int (Queue.length t.queue));
    ("queue_depth", Json.Int t.config.queue_depth);
    ("queries", Json.Int t.metrics.queries);
    ("mutations", Json.Int t.metrics.mutations);
    ("rejected", Json.Int t.metrics.rejected);
    ("expired", Json.Int t.metrics.expired);
    ("overloaded", Json.Int t.metrics.overloaded);
    ("snapshots", Json.Int t.metrics.snapshots);
    ("idempotent_hits", Json.Int t.metrics.idempotent_hits);
    ( "wal",
      match t.wal with
      | None -> Json.Null
      | Some wal ->
        Json.Obj
          [ ("path", Json.String (Wal.path wal));
            ("fsync", Json.String (Wal.fsync_policy_name (Wal.fsync_policy wal)));
            ("bytes", Json.Int (Wal.size wal));
            ("appends", Json.Int t.metrics.wal_appends);
            ("rotations", Json.Int t.metrics.rotations);
            ("replayed", Json.Int t.metrics.replayed)
          ] );
    ( "cache",
      Json.Obj
        [ ("entries", Json.Int (Cache.length t.cache));
          ("hits", Json.Int c.Cache.hits);
          ("subsumed_hits", Json.Int c.Cache.subsumed_hits);
          ("misses", Json.Int c.Cache.misses);
          ("insertions", Json.Int c.Cache.insertions);
          ("invalidations", Json.Int c.Cache.invalidations);
          ("evictions", Json.Int c.Cache.evictions)
        ] )
  ]

let handle t ~now ?(deadline = infinity) env =
  let id = env.Protocol.req_id in
  match env.Protocol.request with
  | Protocol.Query { goal; engine } ->
    (run_query t ~now ~deadline env goal engine, `Continue)
  | Protocol.Add facts -> (run_mutation t ~now ~deadline env `Add facts, `Continue)
  | Protocol.Remove facts ->
    (run_mutation t ~now ~deadline env `Remove facts, `Continue)
  | Protocol.Ping -> (Protocol.pong ~id, `Continue)
  | Protocol.Stats -> (Protocol.stats_reply ~id (stats_fields t), `Continue)
  | Protocol.Snapshot_now -> (
    match snapshot_now t with
    | Ok () ->
      (Protocol.ack ~id ~op:"snapshot" ~count:0 ~txn:t.txn (), `Continue)
    | Error msg -> (Protocol.error ~id msg, `Continue))
  | Protocol.Shutdown -> (Protocol.bye ~id, `Stop)

let process_one t ~now =
  match Queue.take_opt t.queue with
  | None -> None
  | Some { q_session; q_deadline; q_env } ->
    (match Hashtbl.find_opt t.inflight q_session with
    | Some n when n > 1 -> Hashtbl.replace t.inflight q_session (n - 1)
    | Some _ -> Hashtbl.remove t.inflight q_session
    | None -> ());
    if now > q_deadline then begin
      t.metrics.expired <- t.metrics.expired + 1;
      Some
        ( q_session,
          Protocol.error ~id:q_env.Protocol.req_id
            "deadline expired while queued (timeout)",
          `Continue )
    end
    else
      let reply, ctl = handle t ~now ~deadline:q_deadline q_env in
      Some (q_session, reply, ctl)

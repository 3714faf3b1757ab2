(* trace: the per-layer half of the end-to-end benchmark.

   Drives one workload's inputs through each layer's public functions
   in-process, times every call from here (the library is built as is,
   with no tracing of its own), keeps the spans in memory and prints one
   JSON object at the end.

     trace.exe --program P.dl --strategy seminaive|alexander
       [--query GOAL]... --cap N --stream REQS.jsonl --dir TMP --budget S

   Sections:
   - pipeline (repeated until [--budget] seconds are spent, at least
     twice): parse, analysis, rewrite, plan compile, EDB load, engine,
     answer, render, and a replay of the derived facts into fresh
     relations.  Times are medians over the repetitions; the counts must
     repeat exactly.
   - checkpoint: the first query's evaluation capped at [--cap] rounds,
     with and without an every-round checkpoint sink; then the image is
     loaded back and the final database saved as a snapshot.
   - service: the request stream through [Protocol.parse],
     [Supervisor.submit] + [process_one] and [Protocol.render], then its
     mutations replayed through [Incremental] on a saturated copy and
     through [Wal.append] + [Wal.sync] into a scratch log. *)

open Datalog_ast
open Datalog_storage
open Datalog_engine
open Datalog_rewrite
module An = Datalog_analysis
module Srv = Datalog_server

let now = Unix.gettimeofday

(* ---- spans ---------------------------------------------------------- *)

(* Per repetition: total seconds per span name, in first-seen order. *)
let spans : (string, float) Hashtbl.t = Hashtbl.create 32
let span_order = ref []

let add_span name dt =
  match Hashtbl.find_opt spans name with
  | Some t -> Hashtbl.replace spans name (t +. dt)
  | None ->
    span_order := name :: !span_order;
    Hashtbl.add spans name dt

let span name f =
  let t0 = now () in
  let r = f () in
  add_span name (now () -. t0);
  r

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let median xs =
  match List.sort compare xs with
  | [] -> 0.0
  | s ->
    let n = List.length s in
    if n mod 2 = 1 then List.nth s (n / 2)
    else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.0

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("trace: " ^ s); exit 2) fmt

(* ---- pipeline ------------------------------------------------------- *)

type evaluation = {
  query : Atom.t;
  program : Program.t;  (** what the engine evaluates *)
  answer_pred : Pred.t;
  pattern : Atom.t;
  subsume : Subsume.t;
  strategy_name : string;
}

let plan_config = Plan.config ~sip:Plan.Ltr ~merge:true ()

(* Tuples of [pred] in [db] matching [pattern], sorted: the answer
   extraction [Solve] performs. *)
let matching_tuples db pred pattern =
  match Database.find db pred with
  | None -> []
  | Some rel ->
    let bindings = ref [] in
    Array.iteri
      (fun i t ->
        match t with
        | Term.Const v -> bindings := (i, Code.of_value v) :: !bindings
        | Term.Var _ -> ())
      (Atom.args pattern);
    Relation.select rel !bindings
    |> List.filter (Tuple.matches pattern)
    |> List.sort Tuple.compare

(* The rewrite the default strategy performs, as [Solve] does it. *)
let rewrite ~seminaive program query =
  let p = Alexander.Preprocess.split_idb_facts program in
  let rw = Alexander_templates.transform (Adorn.adorn p query) in
  let rules = Rewritten.num_rules rw in
  if seminaive then
    ( { query; program; answer_pred = Atom.pred query; pattern = query;
        subsume = Subsume.none; strategy_name = "seminaive" },
      rules )
  else
    let full =
      Program.make ~facts:(Program.facts p @ rw.Rewritten.seeds)
        rw.Rewritten.rules
    in
    let subsume =
      Subsume.make
        (List.map
           (fun s ->
             (s.Rewritten.specific, s.Rewritten.generals, s.Rewritten.companion))
           rw.Rewritten.subsumption)
    in
    ( { query; program = full; answer_pred = Rewritten.answer_pred rw;
        pattern = rw.Rewritten.answer_atom; subsume;
        strategy_name = "alexander" },
      rules )

(* [Plan.compile] over the rules the engine evaluates, stratum by
   stratum, with the semi-naive delta variants [Fixpoint] builds. *)
let compile_all ev db =
  let card p = Database.cardinal db p in
  match An.Stratify.stratification ev.program with
  | None -> fail "program is not stratified"
  | Some strata ->
    let plans = ref [] in
    for s = 0 to Array.length strata.An.Stratify.groups - 1 do
      let rules = An.Stratify.rules_of_stratum ev.program strata s in
      let recursive =
        List.fold_left
          (fun acc r -> Pred.Set.add (Atom.pred (Rule.head r)) acc)
          (Subsume.companions ev.subsume) rules
      in
      List.iter
        (fun rule ->
          plans := Plan.compile plan_config ~card rule :: !plans;
          List.iteri
            (fun i lit ->
              match lit with
              | Literal.Pos a when Pred.Set.mem (Atom.pred a) recursive ->
                plans :=
                  Plan.compile plan_config ~card ~delta_pos:i rule :: !plans
              | _ -> ())
            (Rule.body rule))
        rules
    done;
    !plans

(* The index shapes the plans probe, per predicate. *)
let accesses plans =
  let tbl = Pred.Tbl.create 8 in
  let note pred shape =
    let l = Option.value ~default:[] (Pred.Tbl.find_opt tbl pred) in
    if not (List.mem shape l) then Pred.Tbl.replace tbl pred (shape :: l)
  in
  List.iter
    (fun p ->
      Array.iter
        (function
          | Plan.Probe { pred; cols; _ } -> note pred (`Hash cols)
          | Plan.Mergejoin { r_pred; r_cols; _ } -> note r_pred (`Sorted r_cols)
          | _ -> ())
        p.Plan.ops)
    plans;
  tbl

(* The derived facts re-inserted, in insertion order, into fresh
   relations that carry the plans' hash indexes (maintained on every
   insert) and sorted projections (built once at the end). *)
let replay ev db plans =
  let shapes = accesses plans in
  let derived =
    List.filter_map
      (fun p ->
        if Program.is_idb ev.program p then Some (p, Database.tuples db p)
        else None)
      (Database.preds db)
  in
  let facts = List.fold_left (fun n (_, ts) -> n + List.length ts) 0 derived in
  let minor0 = Gc.minor_words () in
  let (), dt =
    timed (fun () ->
        List.iter
          (fun (pred, tuples) ->
            let rel = Relation.create (Pred.arity pred) in
            let hashes, sorted =
              List.partition_map
                (function
                  | `Hash c -> Left (c, Relation.prepare (Array.to_list c))
                  | `Sorted c -> Right (Relation.prepare_sorted (Array.to_list c)))
                (Option.value ~default:[] (Pred.Tbl.find_opt shapes pred))
            in
            List.iteri
              (fun i t ->
                ignore (Relation.insert rel t);
                if i = 0 then
                  (* build each hash index now, so inserts maintain it *)
                  List.iter
                    (fun (cols, a) ->
                      ignore (Relation.probe rel a (Tuple.project cols t)))
                    hashes)
              tuples;
            List.iter (fun s -> ignore (Relation.sorted_view rel s)) sorted)
          derived)
  in
  add_span "storage.replay_insert_s" dt;
  (facts, (Gc.minor_words () -. minor0) /. float_of_int (max 1 facts))

type rep = {
  counts : (string * int) list;
  minor_per_fact : float;
  replay_minor_per_fact : float;
}

(* The first query's evaluation and the last query's final database, from
   the first repetition: the checkpoint section's inputs. *)
let kept : (evaluation * Database.t) option ref = ref None

let pipeline ~src ~seminaive ~queries =
  Hashtbl.reset spans;
  span_order := [];
  let parsed =
    span "parser.s" (fun () -> Datalog_parser.Parser.parse_string_exn src)
  in
  let program = parsed.Datalog_parser.Parser.program in
  let queries =
    match queries with [] -> parsed.Datalog_parser.Parser.queries | qs -> qs
  in
  span "analysis.s" (fun () ->
      (match An.Safety.check_program program with
      | Ok () -> ()
      | Error _ -> fail "unsafe program");
      ignore (An.Stratify.is_stratified program));
  let cnt = Counters.create () in
  let minor = ref 0.0 and plans_n = ref 0 and rules_n = ref 0 in
  let render_bytes = ref 0 and replay_facts = ref 0 and replay_minor = ref 0.0 in
  let last_db = ref (Database.create ()) and first = ref None in
  let buf = Buffer.create (1 lsl 16) in
  List.iter
    (fun query ->
      let ev, rules =
        span "rewrite.s" (fun () -> rewrite ~seminaive program query)
      in
      if Option.is_none !first then first := Some ev;
      rules_n := !rules_n + rules;
      let db0 =
        span "storage.load_s" (fun () ->
            Database.of_facts (Program.facts ev.program))
      in
      let plans = span "plan.compile_s" (fun () -> compile_all ev db0) in
      plans_n := !plans_n + List.length plans;
      let minor0 = Gc.minor_words () in
      let outcome =
        span "engine.eval_s" (fun () ->
            match
              Stratified.run ~plan:plan_config ~subsume:ev.subsume ev.program
            with
            | Ok o -> o
            | Error msg -> fail "%s" msg)
      in
      minor := !minor +. (Gc.minor_words () -. minor0);
      let c = outcome.Stratified.counters in
      Counters.add cnt c;
      let answers =
        span "answer.s" (fun () ->
            matching_tuples outcome.Stratified.db ev.answer_pred ev.pattern)
      in
      span "render.s" (fun () ->
          Buffer.clear buf;
          let ppf = Format.formatter_of_buffer buf in
          Format.fprintf ppf "?- %a.@." Atom.pp query;
          List.iter
            (fun t ->
              Format.fprintf ppf "%a@." Atom.pp
                (Tuple.to_atom (Atom.pred query) t))
            answers;
          render_bytes := !render_bytes + Buffer.length buf);
      let n, words = replay ev outcome.Stratified.db plans in
      replay_facts := !replay_facts + n;
      replay_minor := !replay_minor +. (words *. float_of_int n);
      last_db := outcome.Stratified.db)
    queries;
  if Option.is_none !kept then kept := Some (Option.get !first, !last_db);
  let facts = max 1 cnt.Counters.facts_derived in
  { counts =
      [ ("engine.facts_derived", cnt.Counters.facts_derived);
        ("engine.iterations", cnt.Counters.iterations);
        ("engine.firings", cnt.Counters.firings);
        ("engine.probes", cnt.Counters.probes);
        ("engine.scanned", cnt.Counters.scanned);
        ("plan.plans", !plans_n);
        ("rewrite.rules", !rules_n);
        ("render.bytes", !render_bytes) ];
    minor_per_fact = !minor /. float_of_int facts;
    replay_minor_per_fact = !replay_minor /. float_of_int (max 1 !replay_facts) }

(* ---- checkpoint ----------------------------------------------------- *)

let file_size path = (Unix.stat path).Unix.st_size

let checkpoint_section ev ~final_db ~cap ~dir =
  let run checkpoint =
    let limits = Limits.make ~max_iterations:cap () in
    match
      Stratified.run ~limits ~checkpoint ~plan:plan_config ~subsume:ev.subsume
        ev.program
    with
    | Ok _ -> ()
    | Error msg -> fail "%s" msg
  in
  let path = Filename.concat dir "trace.ckpt" in
  let (), plain = timed (fun () -> run Checkpoint.none) in
  let ck = Checkpoint.create ~path ~every:1 () in
  Checkpoint.set_context ck ~strategy:ev.strategy_name
    ~query:(Format.asprintf "%a" Atom.pp ev.query);
  let (), with_ck = timed (fun () -> run ck) in
  let loaded, load_s = timed (fun () -> Checkpoint.load path) in
  (match loaded with Ok _ -> () | Error _ -> fail "checkpoint does not load");
  let snap = Filename.concat dir "trace.snap" in
  let saved, save_s = timed (fun () -> Snapshot.save_database final_db snap) in
  (match saved with Ok () -> () | Error msg -> fail "%s" msg);
  ( [ ("checkpoint.overhead_s", with_ck -. plain);
      ("checkpoint.load_s", load_s);
      ("snapshot.save_s", save_s) ],
    [ ("checkpoint.saves", Checkpoint.saves ck);
      ("checkpoint.bytes", file_size path) ] )

(* ---- service -------------------------------------------------------- *)

let read_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")

let status_ok reply =
  match Json.member "status" reply with
  | Some (Json.String "ok") -> true
  | _ -> false

let json_int path fields =
  let rec go j = function
    | [] -> (match j with Json.Int n -> n | _ -> 0)
    | k :: rest -> (
      match Json.member k j with Some v -> go v rest | None -> 0)
  in
  go (Json.Obj fields) path

let service_section program ~stream ~dir =
  let lines = read_lines stream in
  let config =
    { Srv.Supervisor.default_config with
      Srv.Supervisor.snapshot_path = Some (Filename.concat dir "svc.snap") }
  in
  let sup =
    match Srv.Supervisor.create config program with
    | Ok s -> s
    | Error msg -> fail "%s" msg
  in
  let saturated = Database.copy (Srv.Supervisor.db sup) in
  let parse_s = ref 0.0 and render_s = ref 0.0 in
  let by_op = Hashtbl.create 4 and query_lat = ref [] and failed = ref 0 in
  let mutations = ref [] in
  List.iteri
    (fun i line ->
      let env, dt = timed (fun () -> Srv.Protocol.parse line) in
      parse_s := !parse_s +. dt;
      let env =
        match env with Ok e -> e | Error _ -> fail "bad request line %d" i
      in
      let op =
        match env.Srv.Protocol.request with
        | Srv.Protocol.Query _ -> "query"
        | Srv.Protocol.Add facts ->
          mutations := (`Add, facts) :: !mutations;
          "add"
        | Srv.Protocol.Remove facts ->
          mutations := (`Remove, facts) :: !mutations;
          "remove"
        | _ -> "control"
      in
      let reply, dt =
        timed (fun () ->
            let t = now () in
            (match Srv.Supervisor.submit sup ~session:1 ~now:t env with
            | Srv.Supervisor.Admitted -> ()
            | _ -> fail "request %d not admitted" i);
            match Srv.Supervisor.process_one sup ~now:(now ()) with
            | Some (_, reply, _) -> reply
            | None -> fail "request %d not processed" i)
      in
      if not (status_ok reply) then incr failed;
      Hashtbl.replace by_op op
        (dt +. Option.value ~default:0.0 (Hashtbl.find_opt by_op op));
      if op = "query" then query_lat := dt :: !query_lat;
      let _, dt = timed (fun () -> Srv.Protocol.render reply) in
      render_s := !render_s +. dt)
    lines;
  let stats = Srv.Supervisor.stats_fields sup in
  let mutations = List.rev !mutations in
  (* Incremental: the same mutations on a saturated copy, applied the way
     the supervisor applies them *)
  let rules = Program.make (Program.rules program) in
  let idb = Program.idb program in
  let cnt = Counters.create () in
  let inc_add = ref 0.0 and inc_remove = ref 0.0 and changed = ref 0 in
  List.iter
    (fun (op, facts) ->
      let result, dt =
        match op with
        | `Add ->
          timed (fun () -> Incremental.add_facts cnt rules saturated facts)
        | `Remove ->
          let base =
            List.concat_map
              (fun p ->
                if Pred.Set.mem p idb then []
                else List.map (Tuple.to_atom p) (Database.tuples saturated p))
              (Database.preds saturated)
          in
          let program = Program.make ~facts:base (Program.rules program) in
          timed (fun () ->
              Incremental.remove_facts cnt program saturated facts)
      in
      (match result with Ok n -> changed := !changed + n | Error m -> fail "%s" m);
      match op with
      | `Add -> inc_add := !inc_add +. dt
      | `Remove -> inc_remove := !inc_remove +. dt)
    mutations;
  (* WAL: the same transactions, write and fsync timed apart *)
  let wal_path = Filename.concat dir "trace.wal" in
  let wal =
    match Wal.open_for_append ~fsync:Wal.Never ~valid_bytes:0 wal_path with
    | Ok w -> w
    | Error m -> fail "%s" m
  in
  let header = Wal.size wal in
  let append_s = ref 0.0 and sync_s = ref 0.0 and wal_facts = ref 0 in
  List.iteri
    (fun i (op, facts) ->
      let r, dt = timed (fun () -> Wal.append wal ~txn:(i + 1) ~op facts) in
      (match r with Ok () -> () | Error m -> fail "%s" m);
      append_s := !append_s +. dt;
      let r, dt = timed (fun () -> Wal.sync wal) in
      (match r with Ok () -> () | Error m -> fail "%s" m);
      sync_s := !sync_s +. dt;
      wal_facts := !wal_facts + List.length facts)
    mutations;
  let wal_bytes = Wal.size wal - header in
  Wal.close wal;
  let hits = json_int [ "cache"; "hits" ] stats
  and sub = json_int [ "cache"; "subsumed_hits" ] stats
  and misses = json_int [ "cache"; "misses" ] stats in
  let op_s k = Option.value ~default:0.0 (Hashtbl.find_opt by_op k) in
  ( [ ("protocol.parse_s", !parse_s);
      ("protocol.render_s", !render_s);
      ("supervisor.query_s", op_s "query");
      ("supervisor.add_s", op_s "add");
      ("supervisor.remove_s", op_s "remove");
      ("supervisor.query_median_ms", 1000.0 *. median !query_lat);
      ("incremental.add_s", !inc_add);
      ("incremental.remove_s", !inc_remove);
      ("wal.append_s", !append_s);
      ("wal.sync_s", !sync_s);
      ( "wal.bytes_per_fact",
        float_of_int wal_bytes /. float_of_int (max 1 !wal_facts) );
      ( "cache.hit_ratio",
        float_of_int (hits + sub) /. float_of_int (max 1 (hits + sub + misses))
      ) ],
    [ ("service.requests", List.length lines);
      ("service.failed", !failed);
      ("incremental.tuples_changed", !changed);
      ("cache.hits", hits + sub);
      ("cache.misses", misses);
      ("cache.invalidations", json_int [ "cache"; "invalidations" ] stats);
      ("wal.appends", json_int [ "wal"; "appends" ] stats);
      ("wal.bytes", json_int [ "wal"; "bytes" ] stats) ] )

(* ---- main ----------------------------------------------------------- *)

let () =
  let program_path = ref "" and strategy = ref "seminaive" in
  let queries = ref [] and cap = ref 25 and stream = ref "" in
  let dir = ref "." and budget = ref 2.0 in
  Arg.parse
    [ ("--program", Arg.Set_string program_path, "FILE workload program");
      ("--strategy", Arg.Set_string strategy, "seminaive | alexander");
      ("--query", Arg.String (fun q -> queries := q :: !queries),
       "GOAL (repeatable; default: the file's ?- goals)");
      ("--cap", Arg.Set_int cap, "N round cap of the checkpoint section");
      ("--stream", Arg.Set_string stream, "FILE request lines");
      ("--dir", Arg.Set_string dir, "DIR scratch directory");
      ("--budget", Arg.Set_float budget, "S seconds of pipeline repetitions") ]
    (fun a -> fail "unexpected argument %s" a)
    "trace.exe --program FILE --stream FILE [options]";
  let seminaive =
    match !strategy with
    | "seminaive" -> true
    | "alexander" -> false
    | s -> fail "unsupported strategy %s" s
  in
  let src = In_channel.with_open_text !program_path In_channel.input_all in
  let queries =
    List.rev_map Datalog_parser.Parser.atom_of_string !queries
  in
  let major0 = (Gc.quick_stat ()).Gc.major_collections in
  (* pipeline repetitions *)
  let t_start = now () in
  let reps = ref [] in
  while List.length !reps < 2 || now () -. t_start < !budget do
    let t0 = now () in
    let r = pipeline ~src ~seminaive ~queries in
    let total = now () -. t0 in
    let layer_times =
      List.rev_map (fun k -> (k, Hashtbl.find spans k)) !span_order
    in
    reps := (r, total, layer_times) :: !reps
  done;
  let reps = List.rev !reps in
  let r0, _, l0 = List.hd reps in
  let deterministic =
    List.for_all (fun (r, _, _) -> r.counts = r0.counts) reps
  in
  let n_reps = List.length reps in
  let gc = Gc.quick_stat () in
  let major = gc.Gc.major_collections - major0 in
  let med f = median (List.map f reps) in
  let layer k = med (fun (_, _, l) -> List.assoc k l) in
  let pipeline_s = med (fun (_, t, _) -> t) in
  let layers_sum = med (fun (_, _, l) -> List.fold_left (fun a (_, t) -> a +. t) 0.0 l) in
  (* checkpoint and service, once each *)
  let t0 = now () in
  let first, final_db = Option.get !kept in
  let ck_times, ck_counts =
    checkpoint_section first ~final_db ~cap:!cap ~dir:!dir
  in
  let program = Datalog_parser.Parser.program_of_string src in
  let sv_times, sv_counts = service_section program ~stream:!stream ~dir:!dir in
  let sections_s = now () -. t0 in
  let floats =
    List.map (fun (k, _) -> (k, layer k)) l0
    @ [ ("engine.minor_words_per_fact", med (fun (r, _, _) -> r.minor_per_fact));
        ( "storage.replay_minor_words_per_fact",
          med (fun (r, _, _) -> r.replay_minor_per_fact) );
        ("trace.pipeline_s", pipeline_s);
        ("trace.layers_sum_s", layers_sum);
        ("trace.total_s", pipeline_s +. sections_s) ]
    @ ck_times @ sv_times
  in
  let ints =
    r0.counts @ ck_counts @ sv_counts
    @ [ ("gc.top_heap_words", gc.Gc.top_heap_words);
        ("gc.major_collections", major / n_reps);
        ("trace.repetitions", n_reps) ]
  in
  let doc =
    Json.Obj
      ([ ("deterministic", Json.Bool deterministic) ]
      @ List.map (fun (k, v) -> (k, Json.Float v)) floats
      @ List.map (fun (k, v) -> (k, Json.Int v)) ints)
  in
  print_endline (Json.to_line doc)

open Datalog_ast
open Datalog_storage
open Datalog_engine
open Datalog_rewrite
module Analysis = Datalog_analysis

type report = {
  options : Options.t;
  rewritten : Rewritten.t option;
  db : Database.t;
  answers : Tuple.t list;
  undefined : Atom.t list;
  counters : Counters.t;
  profile : Profile.t;
  plans : Plan.info list;
  evaluator : string;
  status : Limits.status;
  wall_time_s : float;
  minor_words : float;
}

(* An active profile when the caller asked for one — a trace sink implies
   profiling, since both ride the same instrumentation. *)
let profile_of_options options =
  if options.Options.profile || Option.is_some options.Options.trace then
    Profile.create ?trace:options.Options.trace ()
  else Profile.none

(* The engine-side plan configuration for these options.  Under
   [explain], compiled plans are pushed to [push] as they are built;
   callers dedupe afterwards because the well-founded alternation (and
   re-solved tabled calls) re-enter the compiler with the same rules.
   Otherwise no plan description is built at all. *)
let plan_of_options options push =
  Plan.config ~sip:options.Options.sips ~merge:options.Options.merge
    ?on_compile:(if options.Options.explain then Some push else None)
    ()

let dedup_infos infos =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun i ->
      let key = (i.Plan.i_rule, i.Plan.i_variant) in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.add seen key ();
        true
      end)
    infos

let incomplete report =
  match report.status with
  | Limits.Complete -> false
  | Limits.Exhausted _ -> true

let ( let* ) r f = Result.bind r f

(* Tuples of [pred] in [db] matching the (possibly non-ground) [pattern],
   sorted. *)
let matching_tuples db pred pattern =
  match Database.find db pred with
  | None -> []
  | Some rel -> Relation.matching rel (Tuple.pattern pattern)

let matching_atoms atoms pattern =
  List.filter
    (fun a ->
      Pred.equal (Atom.pred a) (Atom.pred pattern)
      && Option.is_some (Unify.matches ~pattern ~ground:a))
    atoms

let has_negation program =
  List.exists (fun r -> Rule.negative_body r <> []) (Program.rules program)

let check_safety program =
  Result.map_error
    (fun msgs -> Errors.Unsafe_program msgs)
    (Analysis.Safety.check_program program)

(* Evaluate [program] (rules + facts) under the requested negation
   semantics; answers are read from [answer_pred]/[pattern]. *)
let evaluate ?resume_from ~plan ?(subsume = Subsume.none) ~db options
    profile program answer_pred pattern =
  let limits = options.Options.limits in
  let checkpoint = options.Options.checkpoint in
  let no_resume evaluator =
    match resume_from with
    | None -> Ok ()
    | Some _ ->
      Error
        (Errors.Evaluation
           (Printf.sprintf "resume is not supported for the %s evaluator"
              evaluator))
  in
  let stratified_eval ~use_naive () =
    let* outcome =
      Result.map_error
        (fun msg -> Errors.Not_stratified msg)
        (Stratified.run ~limits ~profile ~checkpoint ?resume_from ~db
           ~use_naive ~plan ~subsume program)
    in
    Ok
      ( outcome.Stratified.db,
        outcome.Stratified.counters,
        [],
        (if use_naive then "naive" else "seminaive"),
        outcome.Stratified.status )
  in
  let conditional_eval () =
    let* () = no_resume "conditional" in
    let outcome = Conditional.run ~limits ~profile ~plan ~db program in
    Ok
      ( outcome.Conditional.true_db,
        outcome.Conditional.counters,
        outcome.Conditional.undefined,
        "conditional",
        outcome.Conditional.status )
  in
  let wellfounded_eval () =
    let* () = no_resume "wellfounded" in
    let outcome = Wellfounded.run ~limits ~profile ~plan ~db program in
    Ok
      ( outcome.Wellfounded.true_db,
        outcome.Wellfounded.counters,
        outcome.Wellfounded.undefined,
        "wellfounded",
        outcome.Wellfounded.status )
  in
  let use_naive = options.Options.strategy = Options.Naive in
  let* db, counters, undefined_atoms, evaluator, status =
    match options.Options.negation with
    | Options.Auto ->
      if (not (has_negation program)) || Analysis.Stratify.is_stratified program
      then stratified_eval ~use_naive ()
      else conditional_eval ()
    | Options.Stratified_only -> stratified_eval ~use_naive ()
    | Options.Conditional -> conditional_eval ()
    | Options.Well_founded -> wellfounded_eval ()
  in
  let answers = matching_tuples db answer_pred pattern in
  let undefined = matching_atoms undefined_atoms pattern in
  Ok (db, counters, answers, undefined, evaluator, status)

(* The runtime subsumption filter for these options: built from the
   rewriting's declared comparable-adornment pairs (empty on programs
   with at most one adornment per predicate).  Only the stratified
   fixpoint path consults it; the conditional evaluator (the [Auto]
   fallback for unstratified rewritten programs) leaves companions
   empty, so the bridge rules never fire there and answers agree. *)
let subsume_of options rw =
  if not options.Options.subsume then Subsume.none
  else
    Subsume.make
      (List.map
         (fun s ->
           ( s.Rewritten.specific,
             s.Rewritten.generals,
             s.Rewritten.companion ))
         rw.Rewritten.subsumption)

let rewrite options adorned =
  match options.Options.strategy with
  | Options.Magic -> Magic.transform adorned
  | Options.Supplementary -> Supplementary.transform adorned
  | Options.Supplementary_idb -> Supplementary_idb.transform adorned
  | Options.Alexander | Options.Naive | Options.Seminaive | Options.Tabled ->
    Alexander_templates.transform adorned

(* The database a goal evaluating [program] starts from: an overlay of
   [base], unless [program] writes one of base's predicates (a rewritten
   name clashing with a user's EDB predicate) — then a private copy, so
   the base stays read-only whatever the program. *)
let goal_db base program =
  let writes p = Option.is_some (Database.find base p) in
  if
    Pred.Set.exists writes (Program.idb program)
    || List.exists (fun a -> writes (Atom.pred a)) (Program.facts program)
  then Database.copy base
  else Database.overlay base

(* A rule set made ready for many goals over one base database.  What
   every goal would otherwise redo over the whole EDB — encoding its facts
   into a [Database] and, during evaluation, building hash and sorted
   indexes on it — happens once, in the base each goal reads through
   [Database.overlay].  The base is never written: goals add only their
   own facts (IDB facts, seeds), and no rule head is a predicate goals see
   in the base. *)
type prepared = {
  program : Program.t;
  own : Program.t Lazy.t;
      (* the rules plus the facts over IDB predicates — everything a
         non-rewriting goal loads on top of [base].  Rule bodies are
         reordered for left-to-right evaluation when they are not
         already: [p(X) :- not r(X), q(X)] is range-restricted, but a
         plan that tests [not r(X)] before [q(X)] binds [X] cannot run. *)
  base : Database.t Lazy.t;
      (* the given base's relations over predicates no rule derives *)
  split : split Lazy.t;
}

(* The magic-family view: IDB facts moved to fresh EDB predicates, so a
   goal's rewritten program carries only its seeds. *)
and split = {
  s_program : Program.t;
  s_base : Database.t;  (* [base] plus the moved facts *)
  s_card : Pred.t -> int;  (* the cost SIP's estimate *)
}

(* [program]'s facts over an overlay of [base]. *)
let with_facts base program =
  let db = goal_db base program in
  List.iter (fun a -> ignore (Database.add_atom db a)) (Program.facts program);
  db

(* The one constructor: [program]'s rules and IDB facts over [base], which
   supplies every other predicate's facts and holds no IDB predicate. *)
let prepare_lazy base program =
  let is_idb = Program.is_idb program in
  let idb_group (p, _) = is_idb p in
  let groups = Program.fact_groups program in
  let core =
    if List.for_all idb_group groups then program
    else
      let facts =
        (* in program order, not group by group: the order a goal seeds them *)
        if List.exists idb_group groups then
          List.filter (fun a -> is_idb (Atom.pred a)) (Program.facts program)
        else []
      in
      Program.make ~facts (Program.rules program)
  in
  { program;
    own = lazy (Preprocess.reorder_bodies core);
    base;
    split =
      lazy
        (let s_program = Preprocess.split_idb_facts core in
         let s_base =
           if s_program == core then Lazy.force base
           else with_facts (Lazy.force base) s_program
         in
         { s_program; s_base; s_card = Database.cardinal s_base })
  }

let prepare_over ~base program =
  prepare_lazy
    (lazy (Database.overlay ~hide:(Program.is_idb program) base))
    program

let prepare program =
  let edb (p, _) = not (Program.is_idb program p) in
  let groups = List.filter edb (Program.fact_groups program) in
  prepare_lazy (lazy (Database.of_groups groups)) program

(* The base plus the program's own IDB facts: the database of a lookup,
   and the one a tabled goal exposes its tables in. *)
let own_db prepared =
  with_facts (Lazy.force prepared.base) (Lazy.force prepared.own)

(* A magic-family goal: adorn [representative] under the options' SIP,
   rewrite it, and evaluate the rewriting seeded once per goal of
   [goals] — goals sharing [representative]'s predicate and constant
   positions, whose constants each seed carries.  The answers returned
   are [representative]'s. *)
let run_rewritten ?resume_from ~plan ~options profile split representative
    goals =
  let adorned =
    Adorn.adorn ~strategy:options.Options.sips ~card:split.s_card
      split.s_program representative
  in
  let rw = rewrite options adorned in
  let seed_pred = Atom.pred (List.hd rw.Rewritten.seeds) in
  let seed goal =
    Atom.make seed_pred
      (Array.of_list
         (List.filter
            (function Term.Const _ -> true | Term.Var _ -> false)
            (Array.to_list (Atom.args goal))))
  in
  let goal = Program.make ~facts:(List.map seed goals) rw.Rewritten.rules in
  let* result =
    evaluate ?resume_from ~plan ~subsume:(subsume_of options rw)
      ~db:(goal_db split.s_base goal) options profile goal
      (Rewritten.answer_pred rw) rw.Rewritten.answer_atom
  in
  Ok (rw, result)

let run_uncaught ~options ?resume_from prepared query =
  let start = Unix.gettimeofday () in
  let minor0 = Gc.minor_words () in
  let program = prepared.program in
  let profile = profile_of_options options in
  let infos = ref [] in
  let plan = plan_of_options options (fun i -> infos := i :: !infos) in
  let finish rewritten (db, counters, answers, undefined, evaluator, status) =
    { options;
      rewritten;
      db;
      answers;
      undefined;
      counters;
      profile;
      plans = dedup_infos (List.rev !infos);
      evaluator;
      status;
      wall_time_s = Unix.gettimeofday () -. start;
      minor_words = Gc.minor_words () -. minor0
    }
  in
  let strategy_name = Options.strategy_name options.Options.strategy in
  let query_str = Format.asprintf "%a" Atom.pp query in
  Checkpoint.set_context options.Options.checkpoint ~strategy:strategy_name
    ~query:query_str;
  let* () = check_safety program in
  (* a checkpoint only makes sense continued under the evaluation that
     wrote it: same strategy, same query (the program is the caller's
     responsibility — the rewritten predicates would not line up anyway) *)
  let* () =
    match resume_from with
    | None -> Ok ()
    | Some r ->
      Result.map_error
        (fun msg -> Errors.Evaluation msg)
        (Checkpoint.verify_context r ~strategy:strategy_name ~query:query_str)
  in
  let qpred = Atom.pred query in
  if not (Program.is_idb program qpred) then
    (* extensional query, or one over a predicate nothing mentions: a
       direct indexed lookup *)
    let db = own_db prepared in
    let answers = matching_tuples db qpred query in
    Ok
      (finish None
         (db, Counters.create (), answers, [], "lookup", Limits.Complete))
  else
    match options.Options.strategy with
    | Options.Naive | Options.Seminaive ->
      let own = Lazy.force prepared.own in
      let* result =
        evaluate ?resume_from ~plan
          ~db:(goal_db (Lazy.force prepared.base) own)
          options profile own qpred query
      in
      Ok (finish None result)
    | Options.Tabled ->
      let own = Lazy.force prepared.own in
      let* outcome =
        Result.map_error
          (fun msg -> Errors.Evaluation msg)
          (Tabled.run ~limits:options.Options.limits ~profile
             ~checkpoint:options.Options.checkpoint ?resume_from
             ~db:(goal_db (Lazy.force prepared.base) own)
             ~plan own query)
      in
      (* expose the tables as a database, alongside the EDB *)
      let db = own_db prepared in
      List.iter
        (fun (c, tuples) ->
          List.iter
            (fun t -> ignore (Database.add db c.Tabled.call_pred t))
            tuples)
        outcome.Tabled.tables;
      Ok
        (finish None
           ( db,
             outcome.Tabled.counters,
             outcome.Tabled.answers,
             [],
             "tabled",
             outcome.Tabled.status ))
    | Options.Magic | Options.Supplementary | Options.Supplementary_idb
    | Options.Alexander ->
      let* rw, result =
        run_rewritten ?resume_from ~plan ~options profile
          (Lazy.force prepared.split) query [ query ]
      in
      Ok (finish (Some rw) result)

(* A failed checkpoint save and a rule no body order can run surface as
   typed errors; a simulated kill (Faults.Crashed) deliberately
   propagates — it stands for process death, and only the
   fault-injection harness catches it. *)
let typed_errors f =
  match f () with
  | r -> r
  | exception Checkpoint.Save_error msg ->
    Error (Errors.Evaluation ("checkpoint save failed: " ^ msg))
  | exception Plan.Unsafe_rule msg -> Error (Errors.Evaluation msg)

let run_prepared ?(options = Options.default) ?resume_from prepared query =
  typed_errors (fun () -> run_uncaught ~options ?resume_from prepared query)

let run ?options ?resume_from program query =
  run_prepared ?options ?resume_from (prepare program) query

(* group queries by (predicate, binding pattern) so one rewriting serves
   the whole group through multiple seed facts *)
let binding_key query =
  let pattern =
    String.concat ""
      (Array.to_list
         (Array.map
            (function Term.Const _ -> "b" | Term.Var _ -> "f")
            (Atom.args query)))
  in
  (Pred.name (Atom.pred query), Pred.arity (Atom.pred query), pattern)

let run_many_uncaught ~options program queries =
  let prepared = prepare program in
  match options.Options.strategy with
  | Options.Naive | Options.Seminaive | Options.Tabled ->
    (* a single full evaluation answers everything *)
    let rec answer_all acc db = function
      | [] -> Ok (List.rev acc)
      | query :: rest ->
        let answers = matching_tuples db (Atom.pred query) query in
        answer_all ((query, answers) :: acc) db rest
    in
    (match queries with
    | [] -> Ok []
    | first :: _ ->
      let* report = run_prepared ~options prepared first in
      answer_all [] report.db queries)
  | Options.Magic | Options.Supplementary | Options.Supplementary_idb
  | Options.Alexander ->
    let groups = Hashtbl.create 8 in
    List.iteri
      (fun i query ->
        let key = binding_key query in
        let existing = Option.value ~default:[] (Hashtbl.find_opt groups key) in
        Hashtbl.replace groups key ((i, query) :: existing))
      queries;
    let results = Hashtbl.create 8 in
    (* shared across groups: the rows aggregate over the whole batch *)
    let profile = profile_of_options options in
    let plan = plan_of_options options ignore in
    let evaluate_group (_, group) =
      let group = List.rev group in
      match group with
      | [] -> Ok ()
      | (_, representative) :: _ ->
        Result.map
          (fun (rw, (db, _, _, _, _, _)) ->
            List.iter
              (fun (i, query) ->
                (* read this query's answers from the shared database *)
                let answers =
                  matching_tuples db (Rewritten.answer_pred rw)
                    (Atom.make (Rewritten.answer_pred rw) (Atom.args query))
                in
                Hashtbl.replace results i (query, answers))
              group)
          (run_rewritten ~plan ~options profile (Lazy.force prepared.split)
             representative (List.map snd group))
    in
    let rec eval_groups = function
      | [] -> Ok ()
      | g :: rest -> (
        match evaluate_group g with
        | Ok () -> eval_groups rest
        | Error _ as e -> e)
    in
    (match check_safety program with
    | Error _ as e -> e
    | Ok () -> (
      match eval_groups (Hashtbl.fold (fun k v acc -> (k, v) :: acc) groups []) with
      | Error _ as e -> e
      | Ok () ->
        Ok
          (List.mapi
             (fun i query ->
               match Hashtbl.find_opt results i with
               | Some r -> r
               | None -> (query, []))
             queries)))

let run_many ?(options = Options.default) program queries =
  typed_errors (fun () -> run_many_uncaught ~options program queries)

let run_exn ?options program query =
  match run ?options program query with
  | Ok report -> report
  | Error e -> failwith (Errors.message e)

let answer_atoms _program query report =
  List.map (fun t -> Tuple.to_atom (Atom.pred query) t) report.answers

let report_json ~query report =
  let status, reason =
    match report.status with
    | Limits.Complete -> ("complete", Json.Null)
    | Limits.Exhausted r -> ("exhausted", Json.String (Limits.reason_name r))
  in
  let rewritten =
    match report.rewritten with
    | None -> Json.Null
    | Some rw ->
      Json.Obj
        [ ("name", Json.String rw.Rewritten.name);
          ("rules", Json.Int (Rewritten.num_rules rw));
          ("preds", Json.Int (Rewritten.num_preds rw));
          ("seeds", Json.Int (List.length rw.Rewritten.seeds))
        ]
  in
  let plan_block =
    Json.Obj
      [ ( "sip",
          Json.String
            (Analysis.Sips.strategy_name report.options.Options.sips) );
        ( "rules",
          Json.List
            (List.map
               (fun i ->
                 Json.Obj
                   [ ("rule", Json.String i.Plan.i_rule);
                     ("variant", Json.String i.Plan.i_variant);
                     ( "order",
                       Json.List
                         (List.map (fun p -> Json.Int p) i.Plan.i_order) );
                     ( "steps",
                       Json.List
                         (List.map (fun s -> Json.String s) i.Plan.i_steps)
                     )
                   ])
               report.plans) )
      ]
  in
  Json.Obj
    [ ("schema_version", Json.Int 8);
      ("query", Json.String (Format.asprintf "%a" Atom.pp query));
      ( "strategy",
        Json.String (Options.strategy_name report.options.Options.strategy) );
      ( "sips",
        Json.String (Analysis.Sips.strategy_name report.options.Options.sips)
      );
      ( "negation",
        Json.String (Options.negation_name report.options.Options.negation) );
      ("subsume", Json.Bool report.options.Options.subsume);
      ("evaluator", Json.String report.evaluator);
      ("status", Json.String status);
      ("exhausted_reason", reason);
      ("answers", Json.Int (List.length report.answers));
      ("undefined", Json.Int (List.length report.undefined));
      ("wall_time_s", Json.Float report.wall_time_s);
      ("minor_words", Json.Float report.minor_words);
      ("rewritten", rewritten);
      ("plan", plan_block);
      ("totals", Counters.to_json report.counters);
      ("profile", Profile.to_json report.profile)
    ]

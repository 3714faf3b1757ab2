(* Resource governor: every budget stops every strategy, partial answers
   are sound, and an inactive (default) governor changes nothing. *)

open Datalog_ast
module O = Alexander.Options
module S = Alexander.Solve
module L = Datalog_engine.Limits
module C = Datalog_engine.Counters
module W = Alexander.Workloads

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let atom = Datalog_parser.Parser.atom_of_string
let rule = Datalog_parser.Parser.rule_of_string

let with_limits ?(strategy = O.Seminaive) limits =
  { O.default with O.strategy; limits }

(* A cartesian blowup: |p| = n^2 and |q| = n^4, far past any small cap. *)
let explosive n =
  let facts = List.init n (fun i -> Atom.app "d" [ Term.int i ]) in
  Program.make ~facts
    [ rule "p(X, Y) :- d(X), d(Y).";
      rule "q(X, Y, Z, W) :- p(X, Y), p(Z, W)."
    ]

(* a function: interning predicate names at module initialisation would
   perturb the Pred ordering other suites observe *)
let blowup_query () = atom "q(X, Y, Z, W)"

let run_exn ~options program query =
  match S.run ~options program query with
  | Ok report -> report
  | Error e -> Alcotest.fail (Alexander.Errors.message e)

(* -------------------------------------------------------------------- *)
(* Each budget, on its own, stops the evaluation with the right reason *)

let test_fact_cap_every_strategy () =
  let program = explosive 20 in
  let cap = 2_000 in
  List.iter
    (fun strategy ->
      let options = with_limits ~strategy (L.make ~max_facts:cap ()) in
      let report = run_exn ~options program (blowup_query ()) in
      let name = O.strategy_name strategy in
      check tbool (name ^ " reports incomplete") true (S.incomplete report);
      check tbool (name ^ " names the fact cap") true
        (report.S.status = L.Exhausted L.Fact_limit);
      (* the guard fires on the first derivation past the cap *)
      check tbool (name ^ " stays near the cap") true
        (report.S.counters.C.facts_derived <= cap + 64))
    O.all_strategies

let test_timeout_stops () =
  let program = explosive 60 in
  let t0 = Unix.gettimeofday () in
  let options = with_limits (L.make ~timeout_s:0.2 ()) in
  let report = run_exn ~options program (blowup_query ()) in
  let elapsed = Unix.gettimeofday () -. t0 in
  check tbool "timed out" true (report.S.status = L.Exhausted L.Timeout);
  check tbool "promptly" true (elapsed < 5.0)

(* Deadline granularity inside a single round: the whole q blowup is ONE
   semi-naive round (~13M candidate firings for n = 60), so a deadline
   that only fired at round boundaries would overshoot by the entire
   round.  The per-derivation poll (Limits.check_derived, every 64
   firings) must stop the round from inside. *)
let test_deadline_inside_one_round () =
  let program = explosive 60 in
  let t0 = Unix.gettimeofday () in
  let options = with_limits (L.make ~timeout_s:0.05 ()) in
  let report = run_exn ~options program (blowup_query ()) in
  let elapsed = Unix.gettimeofday () -. t0 in
  check tbool "timed out mid-round" true
    (report.S.status = L.Exhausted L.Timeout);
  (* one round alone is seconds of work; the poll must cut the overshoot
     to a small multiple of the budget (generous bound so a loaded CI
     machine cannot flake it) *)
  check tbool "stopped inside the round" true (elapsed < 2.0);
  check tbool "stopped before the round completed" true
    (report.S.counters.C.iterations <= 2)

let test_iteration_cap () =
  let program = W.ancestor_chain 30 in
  let options = with_limits (L.make ~max_iterations:3 ()) in
  let report = run_exn ~options program (atom "anc(0, X)") in
  check tbool "iteration cap hit" true
    (report.S.status = L.Exhausted L.Iteration_limit);
  (* three semi-naive rounds reach paths of length <= 4 *)
  check tbool "some partial answers" true (report.S.answers <> [])

let test_tuple_cap () =
  let program = W.ancestor_chain 30 in
  let options = with_limits (L.make ~max_tuples:50 ()) in
  let report = run_exn ~options program (atom "anc(0, X)") in
  check tbool "tuple cap hit" true
    (report.S.status = L.Exhausted L.Tuple_limit)

let test_cancellation_hook () =
  let program = W.ancestor_chain 30 in
  let options = with_limits (L.make ~cancelled:(fun () -> true) ()) in
  let report = run_exn ~options program (atom "anc(0, X)") in
  check tbool "cancelled" true (report.S.status = L.Exhausted L.Cancelled)

let test_cancellation_three_valued () =
  (* the conditional and alternating fixpoints honour the hook too *)
  let program = W.win_move_dag 6 in
  List.iter
    (fun negation ->
      let options =
        { O.default with
          O.strategy = O.Seminaive;
          negation;
          limits = L.make ~cancelled:(fun () -> true) ()
        }
      in
      let report = run_exn ~options program (atom "win(X)") in
      check tbool
        (O.negation_name negation ^ " cancelled")
        true
        (report.S.status = L.Exhausted L.Cancelled))
    [ O.Conditional; O.Well_founded ]

let test_incremental_exhaustion_is_error () =
  (* a half-propagated database is useless, so maintenance reports Error *)
  let program = W.ancestor_chain 10 in
  let db =
    match Datalog_engine.Stratified.run program with
    | Ok outcome -> outcome.Datalog_engine.Stratified.db
    | Error msg -> Alcotest.fail msg
  in
  let cnt = Datalog_engine.Counters.create () in
  match
    Datalog_engine.Incremental.add_facts cnt ~limits:(L.make ~max_facts:1 ())
      program db
      [ atom "edge(10, 11)" ]
  with
  | Error msg ->
    let has sub s =
      let n = String.length sub and m = String.length s in
      let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
      go 0
    in
    check tbool "explains the budget" true (has "budget" msg)
  | Ok _ -> Alcotest.fail "exhausted maintenance must not report success"

(* -------------------------------------------------------------------- *)
(* Properties *)

(* (a) a guarded blowup terminates for any strategy, near the cap *)
let prop_fact_cap_terminates =
  QCheck.Test.make ~name:"guarded blowup stays within the fact cap" ~count:15
    (QCheck.make
       QCheck.Gen.(
         pair (int_range 10 18) (int_bound (List.length O.all_strategies - 1))))
    (fun (n, si) ->
      let strategy = List.nth O.all_strategies si in
      let cap = 500 in
      let options = with_limits ~strategy (L.make ~max_facts:cap ()) in
      match S.run ~options (explosive n) (blowup_query ()) with
      | Error _ -> false
      | Ok report -> report.S.counters.C.facts_derived <= cap + 64)

(* (b) partial answers are a subset of the unlimited answers *)
let prop_partial_subset =
  QCheck.Test.make
    ~name:"partial answers are a subset of the unlimited answers" ~count:25
    Gen.arb_positive_program_query (fun (program, query) ->
      let full =
        (run_exn ~options:{ O.default with O.strategy = O.Seminaive } program
           query)
          .S.answers
      in
      List.for_all
        (fun strategy ->
          let options = with_limits ~strategy (L.make ~max_facts:15 ()) in
          match S.run ~options program query with
          | Error _ -> false
          | Ok report ->
            List.for_all (fun t -> List.mem t full) report.S.answers)
        O.all_strategies)

(* (c) a governor whose budgets never bind changes nothing *)
let prop_slack_governor_identical =
  QCheck.Test.make
    ~name:"non-binding limits reproduce the ungoverned answers" ~count:20
    Gen.arb_positive_program_query (fun (program, query) ->
      let slack =
        L.make ~timeout_s:300. ~max_facts:10_000_000
          ~max_iterations:1_000_000 ~max_tuples:10_000_000 ()
      in
      List.for_all
        (fun strategy ->
          let plain =
            run_exn ~options:{ O.default with O.strategy } program query
          in
          let governed =
            run_exn ~options:(with_limits ~strategy slack) program query
          in
          plain.S.answers = governed.S.answers
          && (not (S.incomplete plain))
          && not (S.incomplete governed))
        O.all_strategies)

let suite =
  [ ( "limits",
      [ Alcotest.test_case "fact cap, every strategy" `Quick
          test_fact_cap_every_strategy;
        Alcotest.test_case "timeout" `Quick test_timeout_stops;
        Alcotest.test_case "deadline inside one round" `Quick
          test_deadline_inside_one_round;
        Alcotest.test_case "iteration cap" `Quick test_iteration_cap;
        Alcotest.test_case "tuple cap" `Quick test_tuple_cap;
        Alcotest.test_case "cancellation" `Quick test_cancellation_hook;
        Alcotest.test_case "cancellation (three-valued)" `Quick
          test_cancellation_three_valued;
        Alcotest.test_case "incremental exhaustion is an error" `Quick
          test_incremental_exhaustion_is_error;
        QCheck_alcotest.to_alcotest prop_fact_cap_terminates;
        QCheck_alcotest.to_alcotest prop_partial_subset;
        QCheck_alcotest.to_alcotest prop_slack_governor_identical
      ] )
  ]

(* Engine tests: the body-evaluation kernel, naive and semi-naive
   fixpoints, stratified evaluation, the conditional fixpoint, and the
   well-founded (alternating-fixpoint) semantics — including the agreement
   properties between them. *)

open Datalog_ast
open Datalog_storage
open Datalog_engine

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let prog = Datalog_parser.Parser.program_of_string
let atom = Datalog_parser.Parser.atom_of_string

let stratified_exn program =
  match Stratified.run program with
  | Ok outcome -> outcome
  | Error msg -> Alcotest.fail msg

let eval_naive program =
  let db = Database.of_facts (Program.facts program) in
  let cnt = Counters.create () in
  Fixpoint.naive cnt ~db
    ~neg:(fun pred t -> not (Database.mem db pred t))
    (Program.rules program);
  (db, cnt)

let eval_seminaive program =
  let db = Database.of_facts (Program.facts program) in
  let cnt = Counters.create () in
  Fixpoint.seminaive cnt ~db
    ~neg:(fun pred t -> not (Database.mem db pred t))
    (Program.rules program);
  (db, cnt)

let eval_with f program = f program

let idb_atoms program db =
  Gen.db_facts_of (Gen.idb_preds program) db

(* -------------------------------------------------------------------- *)
(* Fixpoints on positive programs *)

let test_naive_ancestor_chain () =
  let program = Alexander.Workloads.ancestor_chain 8 in
  let db, _ = eval_with eval_naive program in
  (* all ordered pairs along the chain: 9 nodes, 8*9/2 = 36 pairs *)
  check tint "anc facts" 36 (Database.cardinal db (Pred.make "anc" 2))

let test_seminaive_equals_naive () =
  let program = Alexander.Workloads.ancestor_tree ~depth:4 ~fanout:2 in
  let db_n, _ = eval_with eval_naive program in
  let db_s, _ = eval_with eval_seminaive program in
  check tbool "same IDB" true (idb_atoms program db_n = idb_atoms program db_s)

let test_seminaive_does_less_work () =
  let program = Alexander.Workloads.ancestor_chain 30 in
  let _, cn = eval_with eval_naive program in
  let _, cs = eval_with eval_seminaive program in
  check tbool "fewer tuples scanned" true
    (cs.Counters.scanned < cn.Counters.scanned);
  check tbool "same new facts" true
    (cs.Counters.facts_derived = cn.Counters.facts_derived)

let test_nonlinear_tc () =
  let facts = Alexander.Workloads.cycle ~pred:"edge" 6 in
  let program =
    Program.make ~facts (Alexander.Workloads.tc_nonlinear_rules ())
  in
  let db, _ = eval_with eval_seminaive program in
  (* a 6-cycle's transitive closure is complete: 36 pairs *)
  check tint "tc of a cycle is complete" 36
    (Database.cardinal db (Pred.make "tc" 2))

let test_builtin_filters () =
  let program =
    prog
      "small(X, Y) :- e(X, Y), Y <= 2, X != Y.\n\
       e(1, 1). e(1, 2). e(1, 3). e(2, 1)."
  in
  let db, _ = eval_with eval_seminaive program in
  let small = Database.tuples db (Pred.make "small" 2) in
  check tint "filtered" 2 (List.length small)

let test_eq_assignment () =
  let program = prog "p(X, Y) :- e(X), Y = 7. e(1). e(2)." in
  let db, _ = eval_with eval_seminaive program in
  check tint "= binds" 2 (Database.cardinal db (Pred.make "p" 2));
  check tbool "value is 7" true
    (Database.mem db (Pred.make "p" 2) [| Code.of_int 1; Code.of_int 7 |])

let test_unsafe_rule_detected () =
  let program = prog "p(X) :- e(X), not q(Y). e(1)." in
  Alcotest.check_raises "unbound negation raises"
    (Plan.Unsafe_rule "negative literal q(Y) not ground at evaluation time")
    (fun () -> ignore (eval_with eval_seminaive program))

(* -------------------------------------------------------------------- *)
(* Stratified evaluation *)

let test_stratified_reach_unreach () =
  let program =
    prog
      "reach(X) :- src(X). reach(Y) :- reach(X), edge(X, Y).\n\
       unreach(X) :- node(X), not reach(X).\n\
       src(0). edge(0, 1). edge(1, 2). edge(3, 4).\n\
       node(0). node(1). node(2). node(3). node(4)."
  in
  let outcome = stratified_exn program in
  let db = outcome.Stratified.db in
  check tint "reach" 3 (Database.cardinal db (Pred.make "reach" 1));
  check tint "unreach" 2 (Database.cardinal db (Pred.make "unreach" 1));
  check tbool "3 unreachable" true
    (Database.mem db (Pred.make "unreach" 1) [| Code.of_int 3 |])

let test_stratified_rejects_winmove () =
  let program = Alexander.Workloads.win_move_dag 4 in
  match Stratified.run program with
  | Error msg -> check tbool "mentions win" true (String.length msg > 0)
  | Ok _ -> Alcotest.fail "win-move must be rejected"

let test_stratified_multiple_negations () =
  let program =
    prog
      "a(X) :- e(X). b(X) :- e(X), not a(X).\n\
       c(X) :- e(X), not b(X). e(1). e(2)."
  in
  let outcome = stratified_exn program in
  let db = outcome.Stratified.db in
  (* a = {1,2}; b = {} ; c = {1,2} *)
  check tint "a" 2 (Database.cardinal db (Pred.make "a" 1));
  check tint "b" 0 (Database.cardinal db (Pred.make "b" 1));
  check tint "c" 2 (Database.cardinal db (Pred.make "c" 1))

(* -------------------------------------------------------------------- *)
(* Conditional fixpoint *)

let test_conditional_on_stratified () =
  let program =
    prog
      "a(X) :- e(X). b(X) :- e(X), not a(X). c(X) :- f(X), not a(X).\n\
       e(1). f(2)."
  in
  let outcome = Conditional.run program in
  check tbool "a(1)" true (Conditional.holds outcome (atom "a(1)"));
  check tbool "no b(1)" false (Conditional.holds outcome (atom "b(1)"));
  check tbool "c(2): not a(2) succeeds" true
    (Conditional.holds outcome (atom "c(2)"));
  check tint "no residue on stratified input" 0
    (List.length outcome.Conditional.residual)

let test_conditional_win_move_chain () =
  (* chain 0 -> 1 -> 2 -> 3: win = {0, 2} *)
  let program = Alexander.Workloads.win_move_dag 3 in
  let outcome = Conditional.run program in
  check tbool "win(0)" true (Conditional.holds outcome (atom "win(0)"));
  check tbool "win(2)" true (Conditional.holds outcome (atom "win(2)"));
  check tbool "not win(1)" false (Conditional.holds outcome (atom "win(1)"));
  check tbool "not win(3)" false (Conditional.holds outcome (atom "win(3)"));
  check tint "no undefined on a DAG" 0 (List.length outcome.Conditional.undefined)

let test_conditional_draw_cycle () =
  (* pure 2-cycle: both positions are draws (undefined) *)
  let program = prog "win(X) :- move(X, Y), not win(Y). move(a, b). move(b, a)." in
  let outcome = Conditional.run program in
  check tbool "win(a) not proved" false (Conditional.holds outcome (atom "win(a)"));
  check tint "both undefined" 2 (List.length outcome.Conditional.undefined)

let test_conditional_mixed_cycle () =
  (* b can escape to a losing position c, so win(b); then a is lost *)
  let program =
    prog
      "win(X) :- move(X, Y), not win(Y).\n\
       move(a, b). move(b, a). move(b, c)."
  in
  let outcome = Conditional.run program in
  check tbool "win(b)" true (Conditional.holds outcome (atom "win(b)"));
  check tbool "not win(a)" false (Conditional.holds outcome (atom "win(a)"));
  check tint "nothing undefined" 0 (List.length outcome.Conditional.undefined)

(* -------------------------------------------------------------------- *)
(* Well-founded semantics *)

let test_wellfounded_win_move_chain () =
  let program = Alexander.Workloads.win_move_dag 3 in
  let outcome = Wellfounded.run program in
  check tbool "win(0)" true (Wellfounded.holds outcome (atom "win(0)"));
  check tbool "win(2)" true (Wellfounded.holds outcome (atom "win(2)"));
  check tbool "not win(1)" false (Wellfounded.holds outcome (atom "win(1)"));
  check tint "no undefined" 0 (List.length outcome.Wellfounded.undefined)

let test_wellfounded_draws () =
  let program = prog "win(X) :- move(X, Y), not win(Y). move(a, b). move(b, a)." in
  let outcome = Wellfounded.run program in
  check tint "two draws" 2 (List.length outcome.Wellfounded.undefined);
  check tbool "win(a) undefined" true
    (Wellfounded.is_undefined outcome (atom "win(a)"))

let test_wellfounded_agrees_with_conditional_on_games () =
  List.iter
    (fun (nodes, edges, seed) ->
      let program = Alexander.Workloads.win_move_random ~nodes ~edges ~seed in
      let wf = Wellfounded.run program in
      let cond = Conditional.run program in
      let wf_true =
        Gen.db_facts_of [ Pred.make "win" 1 ] wf.Wellfounded.true_db
      in
      let cond_true =
        Gen.db_facts_of [ Pred.make "win" 1 ] cond.Conditional.true_db
      in
      check tbool
        (Printf.sprintf "true sets agree (%d,%d,%d)" nodes edges seed)
        true (wf_true = cond_true);
      check tbool
        (Printf.sprintf "undefined sets agree (%d,%d,%d)" nodes edges seed)
        true
        (List.sort Atom.compare wf.Wellfounded.undefined
        = List.sort Atom.compare cond.Conditional.undefined))
    [ (8, 12, 1); (10, 20, 2); (12, 18, 3); (15, 30, 4); (6, 10, 5) ]

(* -------------------------------------------------------------------- *)
(* Properties *)

let prop_naive_equals_seminaive =
  QCheck.Test.make ~name:"naive = semi-naive on random positive programs"
    ~count:60 Gen.arb_positive_program (fun program ->
      let db_n, _ = eval_with eval_naive program in
      let db_s, _ = eval_with eval_seminaive program in
      idb_atoms program db_n = idb_atoms program db_s)

let prop_stratified_equals_conditional =
  QCheck.Test.make
    ~name:"stratified = conditional fixpoint on stratified programs" ~count:40
    Gen.arb_stratified_program (fun program ->
      QCheck.assume (Datalog_analysis.Stratify.is_stratified program);
      let strat = stratified_exn program in
      let cond = Conditional.run program in
      Gen.db_facts_of (Gen.idb_preds program) strat.Stratified.db
      = Gen.db_facts_of (Gen.idb_preds program) cond.Conditional.true_db
      && cond.Conditional.residual = [])

let prop_stratified_equals_wellfounded =
  QCheck.Test.make
    ~name:"stratified = well-founded on stratified programs" ~count:40
    Gen.arb_stratified_program (fun program ->
      QCheck.assume (Datalog_analysis.Stratify.is_stratified program);
      let strat = stratified_exn program in
      let wf = Wellfounded.run program in
      Gen.db_facts_of (Gen.idb_preds program) strat.Stratified.db
      = Gen.db_facts_of (Gen.idb_preds program) wf.Wellfounded.true_db
      && wf.Wellfounded.undefined = [])

let prop_wellfounded_equals_conditional_on_games =
  QCheck.Test.make
    ~name:"well-founded = conditional on random win-move games" ~count:60
    (QCheck.make
       QCheck.Gen.(
         let* nodes = int_range 3 14 in
         let* edges = int_range 2 (2 * nodes) in
         let* seed = int_bound 10_000 in
         return (nodes, edges, seed)))
    (fun (nodes, edges, seed) ->
      let program = Alexander.Workloads.win_move_random ~nodes ~edges ~seed in
      let wf = Wellfounded.run program in
      let cond = Conditional.run program in
      Gen.db_facts_of [ Pred.make "win" 1 ] wf.Wellfounded.true_db
      = Gen.db_facts_of [ Pred.make "win" 1 ] cond.Conditional.true_db
      && List.sort Atom.compare wf.Wellfounded.undefined
         = List.sort Atom.compare cond.Conditional.undefined)

let suite =
  [ ( "engine:fixpoint",
      [ Alcotest.test_case "naive ancestor" `Quick test_naive_ancestor_chain;
        Alcotest.test_case "seminaive = naive" `Quick test_seminaive_equals_naive;
        Alcotest.test_case "seminaive scans less" `Quick
          test_seminaive_does_less_work;
        Alcotest.test_case "non-linear TC" `Quick test_nonlinear_tc;
        Alcotest.test_case "builtins filter" `Quick test_builtin_filters;
        Alcotest.test_case "= assignment" `Quick test_eq_assignment;
        Alcotest.test_case "unsafe rule" `Quick test_unsafe_rule_detected
      ] );
    ( "engine:stratified",
      [ Alcotest.test_case "reach/unreach" `Quick test_stratified_reach_unreach;
        Alcotest.test_case "rejects win-move" `Quick test_stratified_rejects_winmove;
        Alcotest.test_case "negation chain" `Quick test_stratified_multiple_negations
      ] );
    ( "engine:conditional",
      [ Alcotest.test_case "stratified input" `Quick test_conditional_on_stratified;
        Alcotest.test_case "win-move chain" `Quick test_conditional_win_move_chain;
        Alcotest.test_case "draw cycle" `Quick test_conditional_draw_cycle;
        Alcotest.test_case "mixed cycle" `Quick test_conditional_mixed_cycle
      ] );
    ( "engine:wellfounded",
      [ Alcotest.test_case "win-move chain" `Quick test_wellfounded_win_move_chain;
        Alcotest.test_case "draws" `Quick test_wellfounded_draws;
        Alcotest.test_case "agrees with conditional" `Quick
          test_wellfounded_agrees_with_conditional_on_games
      ] );
    ( "engine:properties",
      List.map QCheck_alcotest.to_alcotest
        [ prop_naive_equals_seminaive;
          prop_stratified_equals_conditional;
          prop_stratified_equals_wellfounded;
          prop_wellfounded_equals_conditional_on_games
        ] )
  ]

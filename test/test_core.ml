(* Facade (Solve) integration tests: end-to-end programs through every
   strategy and negation mode, plus the preprocessing passes. *)

open Datalog_ast
module S = Alexander.Solve
module O = Alexander.Options
module W = Alexander.Workloads

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let tstring = Alcotest.string

let prog = Datalog_parser.Parser.program_of_string
let atom = Datalog_parser.Parser.atom_of_string

let answers_with strategy ?(negation = O.Auto) program query =
  let options = { O.default with O.strategy; negation } in
  let report = S.run_exn ~options program query in
  report.S.answers

let test_all_strategies_agree () =
  let cases =
    [ (W.ancestor_chain 10, "anc(2, X)");
      (W.same_generation ~layers:3 ~width:3, "sg(0, X)");
      (W.ancestor_tree ~depth:3 ~fanout:3, "anc(0, X)")
    ]
  in
  List.iter
    (fun (program, q) ->
      let query = atom q in
      let base = answers_with O.Seminaive program query in
      check tbool "non-empty base" true (base <> []);
      List.iter
        (fun strategy ->
          check tbool
            (Printf.sprintf "%s agrees on %s" (O.strategy_name strategy) q)
            true
            (answers_with strategy program query = base))
        O.all_strategies)
    cases

let test_report_fields () =
  let program = W.ancestor_chain 5 in
  let report = S.run_exn program (atom "anc(0, X)") in
  check tbool "rewritten present for alexander" true
    (Option.is_some report.S.rewritten);
  check tstring "evaluator" "seminaive" report.S.evaluator;
  check tbool "wall time measured" true (report.S.wall_time_s >= 0.0);
  check tint "five answers" 5 (List.length report.S.answers)

let test_edb_query_direct () =
  let program = W.ancestor_chain 5 in
  let report = S.run_exn program (atom "edge(2, X)") in
  check tstring "lookup evaluator" "lookup" report.S.evaluator;
  check tint "one edge" 1 (List.length report.S.answers)

let test_unknown_pred_empty () =
  let program = W.ancestor_chain 5 in
  let report = S.run_exn program (atom "nosuch(1, 2)") in
  check tint "no answers" 0 (List.length report.S.answers)

let test_ground_query () =
  let program = W.ancestor_chain 8 in
  List.iter
    (fun strategy ->
      check tint
        (O.strategy_name strategy ^ " proves ground goal")
        1
        (List.length (answers_with strategy program (atom "anc(1, 6)")));
      check tint
        (O.strategy_name strategy ^ " disproves false goal")
        0
        (List.length (answers_with strategy program (atom "anc(6, 1)"))))
    O.all_strategies

let test_repeated_variable_query () =
  (* anc(X, X) over a cycle: every node reaches itself *)
  let program =
    Program.make ~facts:(W.cycle ~pred:"edge" 5) (W.ancestor_rules ())
  in
  let report = S.run_exn ~options:{ O.default with O.strategy = O.Seminaive }
      program (atom "anc(X, X)")
  in
  check tint "five self-loops" 5 (List.length report.S.answers)

let test_unsafe_program_rejected () =
  let program = prog "p(X, Y) :- e(X). e(1)." in
  match S.run program (atom "p(1, X)") with
  | Error e ->
    check tbool "names the variable" true
      (String.length (Alexander.Errors.message e) > 0)
  | Ok _ -> Alcotest.fail "unsafe program accepted"

let test_stratified_only_rejects_winmove () =
  let program = W.win_move_dag 4 in
  let options =
    { O.default with O.strategy = O.Seminaive; negation = O.Stratified_only }
  in
  match S.run ~options program (atom "win(X)") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "must reject"

let test_auto_falls_back_to_conditional () =
  let program = W.win_move_dag 3 in
  let options = { O.default with O.strategy = O.Seminaive } in
  let report = S.run_exn ~options program (atom "win(X)") in
  check tstring "conditional used" "conditional" report.S.evaluator;
  check tint "win = {0, 2}" 2 (List.length report.S.answers)

let test_wellfounded_undefined_reported () =
  let program =
    prog "win(X) :- move(X, Y), not win(Y). move(a, b). move(b, a)."
  in
  let options =
    { O.default with O.strategy = O.Seminaive; negation = O.Well_founded }
  in
  let report = S.run_exn ~options program (atom "win(X)") in
  check tint "no true answers" 0 (List.length report.S.answers);
  check tint "two undefined" 2 (List.length report.S.undefined)

let test_magic_on_stratified_negation () =
  (* the rewritten program loses stratification; Auto must recover via the
     conditional fixpoint and still produce correct answers *)
  let program =
    prog
      "link(X, Y) :- edge(X, Y).\n\
       link(X, Y) :- edge(X, Z), link(Z, Y).\n\
       broken(X, Y) :- pair(X, Y), not link(X, Y).\n\
       edge(1, 2). edge(2, 3). edge(4, 5).\n\
       pair(1, 3). pair(1, 5). pair(4, 2)."
  in
  let query = atom "broken(1, Y)" in
  let direct = answers_with O.Seminaive program query in
  List.iter
    (fun strategy ->
      let options = { O.default with O.strategy = strategy } in
      let report = S.run_exn ~options program query in
      check tbool (O.strategy_name strategy ^ " correct") true
        (report.S.answers = direct))
    [ O.Magic; O.Supplementary; O.Alexander ]

let test_rewriting_breaks_stratification_conditional_recovers () =
  (* negation placed BEFORE a recursive subgoal: the source is stratified,
     the rewritten program is not (the recursive predicate's magic depends
     on the negated literal), and the Auto planner must recover via the
     conditional fixpoint *)
  let program =
    prog
      "p(X) :- a(X), not q(X), r(X).\n\
       q(X) :- b(X), r(X).\n\
       r(X) :- c(X).\n\
       r(X) :- d(X, Y), r(Y).\n\
       a(1). a(2). a(3). a(4). b(2). b(4).\n\
       c(1). c(2). c(4). d(3, 1). d(4, 2)."
  in
  let query = atom "p(X)" in
  check tbool "source stratified" true
    (Datalog_analysis.Stratify.is_stratified program);
  let direct = answers_with O.Seminaive program query in
  check tint "two answers directly" 2 (List.length direct);
  List.iter
    (fun strategy ->
      let options = { O.default with O.strategy } in
      let report = S.run_exn ~options program query in
      (match report.S.rewritten with
      | Some rw ->
        let full =
          Program.make
            ~facts:rw.Datalog_rewrite.Rewritten.seeds
            rw.Datalog_rewrite.Rewritten.rules
        in
        check tbool
          (O.strategy_name strategy ^ " rewriting breaks stratification")
          false
          (Datalog_analysis.Stratify.is_stratified full)
      | None -> Alcotest.fail "rewriting expected");
      check tstring
        (O.strategy_name strategy ^ " falls back to conditional")
        "conditional" report.S.evaluator;
      check tbool
        (O.strategy_name strategy ^ " recovers the answers")
        true
        (report.S.answers = direct))
    [ O.Magic; O.Supplementary; O.Alexander ]

let test_idb_facts_preprocessed () =
  (* facts over an IDB predicate must survive the magic rewriting *)
  let program =
    prog
      "anc(X, Y) :- edge(X, Y). anc(X, Y) :- anc(X, Z), edge(Z, Y).\n\
       anc(100, 0).\n\
       edge(0, 1). edge(1, 2)."
  in
  let query = atom "anc(100, X)" in
  let direct = answers_with O.Seminaive program query in
  (* 100 -> 0 -> 1 -> 2 gives three answers *)
  check tint "three answers directly" 3 (List.length direct);
  List.iter
    (fun strategy ->
      check tbool (O.strategy_name strategy ^ " sees idb facts") true
        (answers_with strategy program query = direct))
    [ O.Magic; O.Supplementary; O.Alexander ]

let test_split_idb_facts_unit () =
  let program = prog "p(X) :- q(X). p(7). q(1)." in
  let split = Alexander.Preprocess.split_idb_facts program in
  check tbool "p(7) moved" true
    (List.for_all
       (fun a -> Pred.name (Atom.pred a) <> "p")
       (Program.facts split));
  check tint "bridge rule added" 2 (List.length (Program.rules split))

let test_reorder_bodies_pass () =
  let program = prog "p(X) :- not q(X), e(X). q(X) :- f(X). e(1). f(2)." in
  let fixed = Alexander.Preprocess.reorder_bodies program in
  List.iter
    (fun r ->
      check tbool "every rule cdi" true
        (Result.is_ok (Datalog_analysis.Safety.cdi r)))
    (Program.rules fixed)

let test_sips_option_respected () =
  let program = W.same_generation ~layers:3 ~width:3 in
  let query = atom "sg(0, X)" in
  let ltr =
    S.run_exn
      ~options:{ O.default with O.sips = Datalog_analysis.Sips.Ltr }
      program query
  in
  let cost =
    S.run_exn
      ~options:{ O.default with O.sips = Datalog_analysis.Sips.Cost }
      program query
  in
  check tbool "same answers under both SIPs" true
    (ltr.S.answers = cost.S.answers)

(* The rewriting [run] evaluates under the cost SIP is the one [adorn]
   builds on the program itself: both count a relation's distinct
   facts, here [e] (one fact, stated three times) below [f] (two). *)
let test_cost_sip_counts_distinct_facts () =
  let program =
    prog "p(X, Y) :- e(X, Z), f(Z, Y). e(1, 2). e(1, 2). e(1, 2). f(2, 3). f(2, 4)."
  in
  let query = atom "p(X, Y)" in
  let report =
    S.run_exn
      ~options:{ O.default with O.sips = Datalog_analysis.Sips.Cost }
      program query
  in
  let adorned =
    Datalog_rewrite.Adorn.adorn ~strategy:Datalog_analysis.Sips.Cost program
      query
  in
  let rules rw = List.map (Format.asprintf "%a" Rule.pp) rw.Datalog_rewrite.Rewritten.rules in
  check (Alcotest.list Alcotest.string) "run evaluates what adorn builds"
    (rules (Datalog_rewrite.Alexander_templates.transform adorned))
    (rules (Option.get report.S.rewritten));
  check (Alcotest.list Alcotest.string) "smaller relation first"
    [ "ans_p__ff(X, Y) :- call_p__ff, e(X, Z), f(Z, Y)." ]
    (rules (Option.get report.S.rewritten))

let test_zero_arity_program () =
  let program = prog "alarm :- smoke, not drill. smoke." in
  let report =
    S.run_exn ~options:{ O.default with O.strategy = O.Seminaive } program
      (atom "alarm")
  in
  check tint "alarm fires" 1 (List.length report.S.answers)

let test_counters_populated () =
  let program = W.ancestor_chain 20 in
  let report =
    S.run_exn ~options:{ O.default with O.strategy = O.Seminaive } program
      (atom "anc(0, X)")
  in
  let c = report.S.counters in
  check tbool "derived facts counted" true
    (c.Datalog_engine.Counters.facts_derived > 0);
  check tbool "probes counted" true (c.Datalog_engine.Counters.probes > 0);
  check tbool "iterations counted" true
    (c.Datalog_engine.Counters.iterations > 1)

(* property: every strategy agrees with semi-naive on random programs *)
let prop_strategies_agree =
  QCheck.Test.make ~name:"all strategies return identical answers" ~count:40
    Gen.arb_positive_program_query (fun (program, query) ->
      let base = answers_with O.Seminaive program query in
      List.for_all
        (fun strategy -> answers_with strategy program query = base)
        O.all_strategies)

let prop_strategies_agree_stratified =
  QCheck.Test.make
    ~name:"all strategies agree on stratified programs with negation"
    ~count:30 Gen.arb_stratified_program_query (fun (program, query) ->
      QCheck.assume (Datalog_analysis.Stratify.is_stratified program);
      match S.run ~options:{ O.default with O.strategy = O.Seminaive } program query with
      | Error _ -> QCheck.assume_fail ()
      | Ok base ->
        List.for_all
          (fun strategy ->
            match S.run ~options:{ O.default with O.strategy = strategy } program query with
            | Error _ -> false
            | Ok r -> r.S.answers = base.S.answers)
          [ O.Magic; O.Supplementary; O.Alexander ])

let suite =
  [ ( "core:solve",
      [ Alcotest.test_case "strategies agree" `Quick test_all_strategies_agree;
        Alcotest.test_case "report fields" `Quick test_report_fields;
        Alcotest.test_case "edb query" `Quick test_edb_query_direct;
        Alcotest.test_case "unknown predicate" `Quick test_unknown_pred_empty;
        Alcotest.test_case "ground query" `Quick test_ground_query;
        Alcotest.test_case "repeated variable" `Quick test_repeated_variable_query;
        Alcotest.test_case "unsafe rejected" `Quick test_unsafe_program_rejected;
        Alcotest.test_case "stratified-only rejects" `Quick
          test_stratified_only_rejects_winmove;
        Alcotest.test_case "auto falls back" `Quick
          test_auto_falls_back_to_conditional;
        Alcotest.test_case "wellfounded undefined" `Quick
          test_wellfounded_undefined_reported;
        Alcotest.test_case "magic + stratified negation" `Quick
          test_magic_on_stratified_negation;
        Alcotest.test_case "rewriting breaks stratification" `Quick
          test_rewriting_breaks_stratification_conditional_recovers;
        Alcotest.test_case "idb facts" `Quick test_idb_facts_preprocessed;
        Alcotest.test_case "split idb facts" `Quick test_split_idb_facts_unit;
        Alcotest.test_case "reorder bodies" `Quick test_reorder_bodies_pass;
        Alcotest.test_case "sips option" `Quick test_sips_option_respected;
        Alcotest.test_case "cost SIP counts distinct facts" `Quick
          test_cost_sip_counts_distinct_facts;
        Alcotest.test_case "zero arity" `Quick test_zero_arity_program;
        Alcotest.test_case "counters" `Quick test_counters_populated
      ] );
    ( "core:properties",
      List.map QCheck_alcotest.to_alcotest
        [ prop_strategies_agree; prop_strategies_agree_stratified ] )
  ]

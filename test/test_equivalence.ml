(* The reproduction's headline theorem (Seki, PODS '89): under a common
   SIP, the Alexander templates rewriting and the supplementary magic sets
   rewriting derive the same call sets and the same answer sets for every
   adorned predicate, tuple for tuple (modulo the call_/m_ and ans_/plain
   renaming).  We check this on the classic workloads and on random
   programs. *)

open Datalog_ast
module E = Alexander.Equivalence
module W = Alexander.Workloads

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let atom = Datalog_parser.Parser.atom_of_string

let assert_equivalent ?sips name program query =
  match E.check ?sips program (atom query) with
  | Error msg -> Alcotest.failf "%s: %s" name msg
  | Ok outcome ->
    check tbool (name ^ ": calls and answers coincide") true
      outcome.E.equivalent;
    check tbool (name ^ ": continuations coincide with IDB-cut sup") true
      outcome.E.conts_equivalent;
    check tbool (name ^ ": query answers match") true
      outcome.E.answers_match_query;
    outcome

let test_ancestor_chain () =
  let o = assert_equivalent "anc chain" (W.ancestor_chain 15) "anc(5, X)" in
  (* the row for anc^bf must show non-trivial call counts *)
  let row = List.hd o.E.rows in
  check tbool "calls observed" true (row.E.calls_alexander > 0);
  check tbool "answers observed" true (row.E.answers_alexander > 0)

let test_ancestor_tree () =
  ignore
    (assert_equivalent "anc tree" (W.ancestor_tree ~depth:4 ~fanout:3) "anc(1, X)")

let test_ancestor_bound_second () =
  ignore (assert_equivalent "anc bs" (W.ancestor_chain 15) "anc(X, 10)")

let test_same_generation () =
  ignore
    (assert_equivalent "sg" (W.same_generation ~layers:4 ~width:4) "sg(1, X)")

let test_reverse_same_generation () =
  ignore
    (assert_equivalent "rsg"
       (W.reverse_same_generation ~layers:3 ~width:3)
       "rsg(0, X)")

let test_nonlinear_tc () =
  let program =
    Program.make ~facts:(W.chain ~pred:"edge" 9) (W.tc_nonlinear_rules ())
  in
  ignore (assert_equivalent "nonlinear tc" program "tc(2, X)")

let test_tc_on_cycle () =
  let program =
    Program.make ~facts:(W.cycle ~pred:"edge" 8) (W.tc_nonlinear_rules ())
  in
  ignore (assert_equivalent "tc cycle" program "tc(0, X)")

let test_both_sips () =
  let program = W.same_generation ~layers:3 ~width:3 in
  ignore
    (assert_equivalent ~sips:Datalog_analysis.Sips.Ltr "sg ltr" program
       "sg(0, X)");
  ignore
    (assert_equivalent ~sips:Datalog_analysis.Sips.Cost "sg cost"
       program "sg(0, X)")

let test_cost_sip_everywhere () =
  (* the theorem holds for ANY common SIP; run the whole workload battery
     under the cost strategy too *)
  List.iter
    (fun (name, program, q) ->
      ignore
        (assert_equivalent ~sips:Datalog_analysis.Sips.Cost
           ("cost " ^ name) program q))
    [ ("anc chain", W.ancestor_chain 12, "anc(4, X)");
      ("anc bound-second", W.ancestor_chain 12, "anc(X, 8)");
      ("sg", W.same_generation ~layers:4 ~width:3, "sg(0, X)");
      ("rsg", W.reverse_same_generation ~layers:3 ~width:3, "rsg(0, X)");
      ( "nonlinear",
        Program.make ~facts:(W.chain ~pred:"edge" 8) (W.tc_nonlinear_rules ()),
        "tc(2, X)" )
    ]

let test_multi_predicate_program () =
  let program =
    Datalog_parser.Parser.program_of_string
      "buys(X, Y) :- trendy(X), likes(X, Y).\n\
       likes(X, Y) :- knows(X, Z), likes(Z, Y).\n\
       likes(X, Y) :- owns(X, Y).\n\
       trendy(X) :- knows(X, Z), trendy(Z).\n\
       trendy(X) :- founder(X).\n\
       knows(1, 2). knows(2, 3). knows(3, 4). knows(4, 2).\n\
       owns(4, 9). owns(3, 8). founder(3).\n"
  in
  let o = assert_equivalent "buys" program "buys(1, X)" in
  (* several adorned predicates must be reachable *)
  check tbool "at least 3 adorned predicates" true (List.length o.E.rows >= 3)

let test_counts_reported () =
  let program = W.ancestor_chain 10 in
  match E.check program (atom "anc(0, X)") with
  | Error m -> Alcotest.fail m
  | Ok o ->
    let row = List.hd o.E.rows in
    check tint "call counts equal" row.E.calls_magic row.E.calls_alexander;
    check tint "answer counts equal" row.E.answers_magic row.E.answers_alexander

(* Seki equivalence as a property over random positive programs *)
let prop_seki_equivalence =
  QCheck.Test.make
    ~name:"Seki equivalence on random positive programs" ~count:60
    Gen.arb_positive_program_query (fun (program, query) ->
      match E.check program query with
      | Error _ -> QCheck.assume_fail ()
      | Ok o -> o.E.equivalent && o.E.conts_equivalent && o.E.answers_match_query)

(* ... and over random stratified programs with negation (via the
   conditional fixpoint inside the checker) *)
let prop_seki_equivalence_negation =
  QCheck.Test.make
    ~name:"Seki equivalence on random stratified programs" ~count:40
    Gen.arb_stratified_program_query (fun (program, query) ->
      QCheck.assume (Datalog_analysis.Stratify.is_stratified program);
      match E.check program query with
      | Error _ -> QCheck.assume_fail ()
      | Ok o -> o.E.equivalent && o.E.conts_equivalent && o.E.answers_match_query)

let suite =
  [ ( "equivalence",
      [ Alcotest.test_case "ancestor chain" `Quick test_ancestor_chain;
        Alcotest.test_case "ancestor tree" `Quick test_ancestor_tree;
        Alcotest.test_case "ancestor bound-second" `Quick
          test_ancestor_bound_second;
        Alcotest.test_case "same generation" `Quick test_same_generation;
        Alcotest.test_case "reverse same generation" `Quick
          test_reverse_same_generation;
        Alcotest.test_case "nonlinear tc" `Quick test_nonlinear_tc;
        Alcotest.test_case "tc on cycle" `Quick test_tc_on_cycle;
        Alcotest.test_case "both SIP strategies" `Quick test_both_sips;
        Alcotest.test_case "cost SIP battery" `Quick test_cost_sip_everywhere;
        Alcotest.test_case "multi-predicate" `Quick test_multi_predicate_program;
        Alcotest.test_case "counts reported" `Quick test_counts_reported
      ] );
    ( "equivalence:properties",
      List.map QCheck_alcotest.to_alcotest
        [ prop_seki_equivalence; prop_seki_equivalence_negation ] )
  ]

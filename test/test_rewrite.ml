(* Rewrite tests: binding patterns, adornment, and the
   three rewritings (generalized magic, supplementary magic, Alexander
   templates) — structure and, most importantly, answer correctness
   against direct semi-naive evaluation. *)

open Datalog_ast
open Datalog_storage
open Datalog_engine
open Datalog_rewrite

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let tstring = Alcotest.string

let prog = Datalog_parser.Parser.program_of_string
let atom = Datalog_parser.Parser.atom_of_string
let rule = Datalog_parser.Parser.rule_of_string

(* -------------------------------------------------------------------- *)
(* Binding patterns *)

let test_binding_roundtrip () =
  let b = Binding.of_string "bfb" in
  check tstring "round-trip" "bfb" (Binding.to_string b);
  check tint "bound count" 2 (Binding.bound_count b);
  check (Alcotest.list tint) "bound positions" [ 0; 2 ] (Binding.bound_positions b);
  check (Alcotest.list tint) "free positions" [ 1 ] (Binding.free_positions b)

let test_binding_of_atom () =
  let a = atom "p(X, c, Y)" in
  let b = Binding.of_atom ~bound:(String.equal "X") a in
  check tstring "constants and bound vars" "bbf" (Binding.to_string b)

let test_binding_invalid () =
  Alcotest.check_raises "bad char" (Invalid_argument "Binding.of_string: 'x'")
    (fun () -> ignore (Binding.of_string "bx"))

(* -------------------------------------------------------------------- *)
(* Adornment *)

let test_adorn_ancestor () =
  let program = Alexander.Workloads.ancestor_chain 3 in
  let adorned = Adorn.adorn program (atom "anc(0, X)") in
  check tstring "query binding" "bf" (Binding.to_string adorned.Adorn.query_binding);
  check tstring "query pred" "anc__bf" (Pred.name adorned.Adorn.query_pred);
  (* two source rules, one reachable binding pattern *)
  check tint "two adorned rules" 2 (List.length adorned.Adorn.rules);
  (* the recursive rule's body atom anc(Z, Y) is called with Z bound *)
  let recursive =
    List.find
      (fun (r : Adorn.adorned_rule) -> List.length r.Adorn.body = 2)
      adorned.Adorn.rules
  in
  match List.rev recursive.Adorn.body with
  | Literal.Pos a :: _ ->
    check tstring "recursive call adorned bf" "anc__bf" (Pred.name (Atom.pred a))
  | _ -> Alcotest.fail "expected positive recursive call"

let test_adorn_multiple_bindings () =
  (* same-generation with a bound-first query produces sg__bf only; the
     "both free" pattern is never reached *)
  let program = Alexander.Workloads.same_generation ~layers:2 ~width:2 in
  let adorned = Adorn.adorn program (atom "sg(0, X)") in
  let bindings =
    List.sort_uniq compare
      (List.map
         (fun (r : Adorn.adorned_rule) -> Binding.to_string r.Adorn.head_binding)
         adorned.Adorn.rules)
  in
  check (Alcotest.list tstring) "only bf reached" [ "bf" ] bindings

let test_adorn_all_free_query () =
  let program = Alexander.Workloads.ancestor_chain 3 in
  let adorned = Adorn.adorn program (atom "anc(X, Y)") in
  check tstring "ff binding" "ff" (Binding.to_string adorned.Adorn.query_binding);
  check tstring "pred" "anc__ff" (Pred.name adorned.Adorn.query_pred)

let test_adorn_unbound_negation_raises () =
  (* Y is never bound by a positive literal, so the negated IDB call q(X, Y)
     cannot be fully bound under any order; adornment must refuse (the rule
     is not range-restricted, which the solver's validation also rejects) *)
  let program = prog "p(X) :- e(X), not q(X, Y). q(X, Y) :- e2(X, Y). e(1)." in
  match Adorn.adorn program (atom "p(1)") with
  | exception Adorn.Unbound_negation _ -> ()
  | _ -> Alcotest.fail "expected Unbound_negation"

let test_adorn_indices_stable () =
  let program = Alexander.Workloads.same_generation ~layers:3 ~width:3 in
  let a1 = Adorn.adorn program (atom "sg(0, X)") in
  let a2 = Adorn.adorn program (atom "sg(0, X)") in
  check tbool "deterministic" true
    (List.equal
       (fun (r1 : Adorn.adorned_rule) (r2 : Adorn.adorned_rule) ->
         r1.Adorn.index = r2.Adorn.index && Rule.equal
           (Rule.make r1.Adorn.head r1.Adorn.body)
           (Rule.make r2.Adorn.head r2.Adorn.body))
       a1.Adorn.rules a2.Adorn.rules)

(* -------------------------------------------------------------------- *)
(* Structure of the rewritten programs *)

let adorned_ancestor () =
  Adorn.adorn (Alexander.Workloads.ancestor_chain 4) (atom "anc(0, X)")

let test_magic_structure () =
  let rw = Magic.transform (adorned_ancestor ()) in
  (* base rule: 1 modified; recursive rule: 1 modified + 1 magic *)
  check tint "three rules" 3 (List.length rw.Rewritten.rules);
  check tint "one seed" 1 (List.length rw.Rewritten.seeds);
  let seed = List.hd rw.Rewritten.seeds in
  check tstring "seed pred" "m_anc__bf" (Pred.name (Atom.pred seed));
  check tbool "seed ground" true (Atom.is_ground seed)

let test_supplementary_structure () =
  let rw = Supplementary.transform (adorned_ancestor ()) in
  (* per rule of body length n: 1 sup0 + n steps + #idb magic + 1 head.
     base (n=1, 0 idb): 3; recursive (n=2, 1 idb): 5. *)
  check tint "eight rules" 8 (List.length rw.Rewritten.rules);
  let sup_preds =
    List.filter
      (fun r ->
        String.length (Pred.name (Atom.pred (Rule.head r))) >= 4
        && String.sub (Pred.name (Atom.pred (Rule.head r))) 0 4 = "sup_")
      rw.Rewritten.rules
  in
  check tbool "has supplementary predicates" true (List.length sup_preds > 0)

let test_alexander_structure () =
  let rw = Alexander_templates.transform (adorned_ancestor ()) in
  (* base rule (no idb): 1 ans rule.  recursive rule (1 idb): cont + call
     + final ans = 3. *)
  check tint "four rules" 4 (List.length rw.Rewritten.rules);
  check tstring "seed pred" "call_anc__bf"
    (Pred.name (Atom.pred (List.hd rw.Rewritten.seeds)));
  check tstring "answers in ans pred" "ans_anc__bf"
    (Pred.name (Rewritten.answer_pred rw))

let test_alexander_cuts_only_at_idb () =
  (* rule with two EDB literals around one IDB literal: only one
     continuation *)
  let program =
    prog
      "p(X, Y) :- e(X, A), q(A, B), f(B, Y). q(X, Y) :- g(X, Y).\n\
       e(1, 2). g(2, 3). f(3, 4)."
  in
  let adorned = Adorn.adorn program (atom "p(1, Z)") in
  let rw = Alexander_templates.transform adorned in
  let conts =
    List.filter
      (fun r ->
        let n = Pred.name (Atom.pred (Rule.head r)) in
        String.length n >= 5 && String.sub n 0 5 = "cont_")
      rw.Rewritten.rules
  in
  (* p's rule has exactly one IDB subgoal -> exactly one continuation *)
  check tint "one continuation for p's rule" 1 (List.length conts)

let test_supplementary_cuts_everywhere () =
  let program =
    prog
      "p(X, Y) :- e(X, A), q(A, B), f(B, Y). q(X, Y) :- g(X, Y).\n\
       e(1, 2). g(2, 3). f(3, 4)."
  in
  let adorned = Adorn.adorn program (atom "p(1, Z)") in
  let rw = Supplementary.transform adorned in
  let sups =
    List.sort_uniq String.compare
      (List.filter_map
         (fun r ->
           let n = Pred.name (Atom.pred (Rule.head r)) in
           if String.length n >= 4 && String.sub n 0 4 = "sup_" then Some n
           else None)
         rw.Rewritten.rules)
  in
  (* p's rule (3 literals) gets sup_0..sup_3; q's rule (1 literal) gets
     sup_0..sup_1: six distinct supplementary predicates *)
  check tint "six supplementary predicates" 6 (List.length sups)

(* -------------------------------------------------------------------- *)
(* Answer correctness: every rewriting = direct evaluation *)

let stratified_exn program =
  match Stratified.run program with
  | Ok outcome -> outcome
  | Error msg -> Alcotest.fail msg

let direct_answers program query =
  let outcome = stratified_exn program in
  let pred = Atom.pred query in
  Database.tuples outcome.Stratified.db pred
  |> List.filter (Tuple.matches query)
  |> List.sort Tuple.compare

let rewritten_answers transform program query =
  let adorned = Adorn.adorn program query in
  let rw = transform adorned in
  let full =
    Program.make
      ~facts:(Program.facts program @ rw.Rewritten.seeds)
      rw.Rewritten.rules
  in
  let outcome = stratified_exn full in
  let pattern = rw.Rewritten.answer_atom in
  let pred = Atom.pred pattern in
  Database.tuples outcome.Stratified.db pred
  |> List.filter (Tuple.matches pattern)
  |> List.sort Tuple.compare

let workload_cases =
  [ ("anc chain bound-first", Alexander.Workloads.ancestor_chain 12, "anc(3, X)");
    ("anc chain bound-second", Alexander.Workloads.ancestor_chain 12, "anc(X, 9)");
    ("anc chain both bound", Alexander.Workloads.ancestor_chain 12, "anc(2, 7)");
    ("anc tree", Alexander.Workloads.ancestor_tree ~depth:4 ~fanout:2, "anc(1, X)");
    ( "anc right-linear",
      Program.make
        ~facts:(Alexander.Workloads.chain ~pred:"edge" 10)
        (Alexander.Workloads.ancestor_rules_right ()),
      "anc(4, X)" );
    ( "same generation",
      Alexander.Workloads.same_generation ~layers:4 ~width:3,
      "sg(0, X)" );
    ( "reverse same generation",
      Alexander.Workloads.reverse_same_generation ~layers:3 ~width:3,
      "rsg(0, X)" );
    ( "nonlinear tc",
      Program.make
        ~facts:(Alexander.Workloads.chain ~pred:"edge" 8)
        (Alexander.Workloads.tc_nonlinear_rules ()),
      "tc(2, X)" );
    ( "tc on a cycle",
      Program.make
        ~facts:(Alexander.Workloads.cycle ~pred:"edge" 7)
        (Alexander.Workloads.tc_nonlinear_rules ()),
      "tc(3, X)" )
  ]

let correctness_tests transform tname =
  List.map
    (fun (name, program, q) ->
      Alcotest.test_case (tname ^ ": " ^ name) `Quick (fun () ->
          let query = atom q in
          check tbool "answers agree" true
            (direct_answers program query
            = rewritten_answers transform program query)))
    workload_cases

(* magic answers are sound even with an empty result *)
let test_empty_answers () =
  let program = Alexander.Workloads.ancestor_chain 5 in
  List.iter
    (fun transform ->
      let answers = rewritten_answers transform program (atom "anc(5, 0)") in
      check tint "no answers" 0 (List.length answers))
    [ Magic.transform; Supplementary.transform; Supplementary_idb.transform;
      Alexander_templates.transform ]

(* rewriting with negation in the source program (stratified case) *)
let test_rewriting_with_stratified_negation () =
  let program =
    prog
      "link(X, Y) :- edge(X, Y).\n\
       link(X, Y) :- edge(X, Z), link(Z, Y).\n\
       broken(X, Y) :- pair(X, Y), not link(X, Y).\n\
       edge(1, 2). edge(2, 3). edge(4, 5).\n\
       pair(1, 3). pair(1, 5). pair(4, 2)."
  in
  let query = atom "broken(1, Y)" in
  let direct = direct_answers program query in
  check tint "one broken pair from 1" 1 (List.length direct);
  List.iter
    (fun transform ->
      let adorned = Adorn.adorn program query in
      let rw = transform adorned in
      let full =
        Program.make
          ~facts:(Program.facts program @ rw.Rewritten.seeds)
          rw.Rewritten.rules
      in
      (* the rewritten program may lose predicate-level stratification;
         evaluate with the conditional fixpoint *)
      let outcome = Conditional.run full in
      let pattern = rw.Rewritten.answer_atom in
      let pred = Atom.pred pattern in
      let answers =
        Database.tuples outcome.Conditional.true_db pred
        |> List.filter (Tuple.matches pattern)
        |> List.sort Tuple.compare
      in
      check tbool "negation handled" true (answers = direct);
      check tint "no undefined atoms" 0 (List.length outcome.Conditional.undefined))
    [ Magic.transform; Supplementary.transform; Supplementary_idb.transform;
      Alexander_templates.transform ]

(* property: all three rewritings agree with direct evaluation on random
   positive programs with bound queries *)
let prop_rewritings_correct =
  QCheck.Test.make
    ~name:"magic / supplementary / alexander answers = direct answers"
    ~count:50 Gen.arb_positive_program_query (fun (program, query) ->
      let direct = direct_answers program query in
      List.for_all
        (fun transform -> rewritten_answers transform program query = direct)
        [ Magic.transform; Supplementary.transform; Supplementary_idb.transform;
      Alexander_templates.transform ])

let suite =
  [ ( "rewrite:binding",
      [ Alcotest.test_case "round-trip" `Quick test_binding_roundtrip;
        Alcotest.test_case "of_atom" `Quick test_binding_of_atom;
        Alcotest.test_case "invalid" `Quick test_binding_invalid
      ] );
    ( "rewrite:adorn",
      [ Alcotest.test_case "ancestor" `Quick test_adorn_ancestor;
        Alcotest.test_case "reachable bindings" `Quick test_adorn_multiple_bindings;
        Alcotest.test_case "all-free query" `Quick test_adorn_all_free_query;
        Alcotest.test_case "unbound negation" `Quick
          test_adorn_unbound_negation_raises;
        Alcotest.test_case "deterministic indices" `Quick test_adorn_indices_stable
      ] );
    ( "rewrite:structure",
      [ Alcotest.test_case "magic" `Quick test_magic_structure;
        Alcotest.test_case "supplementary" `Quick test_supplementary_structure;
        Alcotest.test_case "alexander" `Quick test_alexander_structure;
        Alcotest.test_case "alexander cuts at idb" `Quick
          test_alexander_cuts_only_at_idb;
        Alcotest.test_case "supplementary cuts everywhere" `Quick
          test_supplementary_cuts_everywhere
      ] );
    ( "rewrite:correctness",
      correctness_tests Magic.transform "magic"
      @ correctness_tests Supplementary.transform "supplementary"
      @ correctness_tests Supplementary_idb.transform "supplementary-idb"
      @ correctness_tests Alexander_templates.transform "alexander"
      @ [ Alcotest.test_case "empty answers" `Quick test_empty_answers;
          Alcotest.test_case "stratified negation" `Quick
            test_rewriting_with_stratified_negation
        ] );
    ( "rewrite:properties",
      List.map QCheck_alcotest.to_alcotest [ prop_rewritings_correct ] )
  ]

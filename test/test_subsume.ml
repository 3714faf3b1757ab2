(* The runtime adornment-lattice subsumption filter: dropping a specific
   magic/problem fact whose strictly-more-general call is already present
   must never change answers (the bridge rules restore the dropped calls'
   answers), while strictly lowering derived facts and probes on the
   bound-pair workloads.  Also here: the idempotent rewrite registry and
   the transformation-based well-founded engine against its alternating
   differential oracle. *)

open Datalog_ast
module O = Alexander.Options
module S = Alexander.Solve
module W = Alexander.Workloads
module C = Datalog_engine.Counters
module Wf = Datalog_engine.Wellfounded

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let atom = Datalog_parser.Parser.atom_of_string

let run ?(subsume = true) ?(sips = Datalog_rewrite.Sips.Left_to_right)
    strategy program query =
  S.run_exn ~options:{ O.default with O.strategy; sips; subsume } program query

let answers report = report.S.answers

(* ---------------------------------------------------------------- *)
(* Registry idempotency *)

let test_registry_idempotent () =
  let module R = Datalog_rewrite.Registry in
  let module B = Datalog_rewrite.Binding in
  let t = R.create () in
  let p = Pred.make "m_anc__bf" 1 in
  let src = Pred.make "anc" 2 in
  let kind = R.Magic (src, B.of_string "bf") in
  R.register t p kind;
  (* the seed-fact path re-registers the query's magic predicate after
     adornment already did; the first registration must win and the table
     must keep a single entry *)
  R.register t p (R.Sup (0, 0));
  (match R.kind_of t p with
  | Some (R.Magic _) -> ()
  | _ -> Alcotest.fail "first registration should win");
  check tint "single entry" 1 (R.fold (fun _ _ n -> n + 1) t 0)

(* ---------------------------------------------------------------- *)
(* Deterministic pins on the bound-pair workloads *)

let magic_family = [ O.Magic; O.Supplementary; O.Supplementary_idb; O.Alexander ]

let test_subsume_triggers_and_preserves_answers () =
  let program = W.tc_bound_pair 30 in
  let query = atom "tc(0, 30)" in
  List.iter
    (fun strategy ->
      let on = run strategy program query in
      let off = run ~subsume:false strategy program query in
      let name = O.strategy_name strategy in
      check tbool (name ^ ": filter fired") true
        (on.S.counters.C.subsumed > 0);
      check tint (name ^ ": off-run untouched") 0 off.S.counters.C.subsumed;
      check
        (Alcotest.list (Alcotest.list Alcotest.int))
        (name ^ ": answers agree")
        (List.map Array.to_list (answers off))
        (List.map Array.to_list (answers on));
      check tbool (name ^ ": fewer facts derived") true
        (on.S.counters.C.facts_derived < off.S.counters.C.facts_derived))
    magic_family

let test_subsume_strictly_cheaper_magic () =
  (* the acceptance pin: facts AND probes strictly decrease (the bench
     baseline carries the same cells; see BENCH_baseline.json) *)
  List.iter
    (fun (name, program, q, strategies) ->
      let query = atom q in
      List.iter
        (fun strategy ->
          let on = run strategy program query in
          let off = run ~subsume:false strategy program query in
          let cell = name ^ "/" ^ O.strategy_name strategy in
          check tbool (cell ^ ": facts strictly lower") true
            (on.S.counters.C.facts_derived < off.S.counters.C.facts_derived);
          check tbool (cell ^ ": probes strictly lower") true
            (on.S.counters.C.probes < off.S.counters.C.probes))
        strategies)
    [ ("tc chain", W.tc_bound_pair 60, "tc(0, 60)", [ O.Magic ]);
      ( "tc tree 7x2",
        W.tc_bound_tree ~depth:7 ~fanout:2,
        "tc(0, 200)",
        [ O.Magic; O.Supplementary_idb; O.Alexander ] );
      ( "tc tree 5x3",
        W.tc_bound_tree ~depth:5 ~fanout:3,
        "tc(0, 300)",
        [ O.Magic; O.Supplementary_idb; O.Alexander ] );
      ( "tc random",
        W.tc_bound_random ~nodes:80 ~edges:160 ~seed:7,
        "tc(0, 40)",
        [ O.Magic; O.Supplementary ] )
    ]

let test_no_comparable_pair_is_inert () =
  (* single-adornment programs must be bit-for-bit unaffected: the filter
     has no comparable pairs, so the rewriting declares no subsumption
     and the counters coincide exactly *)
  let program = W.same_generation ~layers:4 ~width:4 in
  let query = atom "sg(0, X)" in
  List.iter
    (fun strategy ->
      let on = run strategy program query in
      let off = run ~subsume:false strategy program query in
      let name = O.strategy_name strategy in
      check tint (name ^ ": nothing subsumed") 0 on.S.counters.C.subsumed;
      check tint (name ^ ": same facts")
        off.S.counters.C.facts_derived on.S.counters.C.facts_derived;
      check tint (name ^ ": same probes")
        off.S.counters.C.probes on.S.counters.C.probes)
    magic_family

(* ---------------------------------------------------------------- *)
(* Properties *)

let same_answers a b =
  List.length a = List.length b
  && List.for_all2 (fun x y -> Array.to_list x = Array.to_list y) a b

(* --subsume / --no-subsume answer equality across every strategy and
   both SIPs, over random programs with one- and two-sided bound
   queries *)
let prop_subsume_preserves_answers =
  QCheck.Test.make ~name:"subsumption filter preserves answers" ~count:40
    Gen.arb_positive_program_any_query (fun (program, query) ->
      List.for_all
        (fun sips ->
          List.for_all
            (fun strategy ->
              let on = run ~sips strategy program query in
              let off = run ~subsume:false ~sips strategy program query in
              same_answers (answers on) (answers off))
            O.all_strategies)
        [ Datalog_rewrite.Sips.Left_to_right; Datalog_rewrite.Sips.Greedy_bound ])

(* same equality on stratified programs with negation (the rewritten
   program may lose stratification and fall back to the conditional
   evaluator, where companions stay empty and bridges stay inert) *)
let prop_subsume_preserves_answers_negation =
  QCheck.Test.make
    ~name:"subsumption filter preserves answers under negation" ~count:30
    Gen.arb_stratified_program_query (fun (program, query) ->
      QCheck.assume (Datalog_analysis.Stratify.is_stratified program);
      List.for_all
        (fun strategy ->
          let on = run strategy program query in
          let off = run ~subsume:false strategy program query in
          same_answers (answers on) (answers off))
        O.all_strategies)

(* ---------------------------------------------------------------- *)
(* Well-founded: transformation-based engine vs the alternating oracle *)

let wf_agrees program =
  let a = Wf.run program in
  let b = Alternating.run program in
  let idb = Gen.idb_preds program in
  Gen.db_facts_of idb a.Wf.true_db = Gen.db_facts_of idb b.Wf.true_db
  && List.sort Atom.compare a.Wf.undefined
     = List.sort Atom.compare b.Wf.undefined

let prop_wellfounded_differential =
  QCheck.Test.make
    ~name:"transformation-based WF agrees with alternating fixpoint"
    ~count:60 Gen.arb_unstratified_program wf_agrees

let test_wf_agrees_on_games () =
  List.iter
    (fun (name, program) ->
      check tbool name true (wf_agrees program))
    [ ("win tree", W.win_tree ~depth:5 ~fanout:2);
      ("win cycle dense", W.win_cycle_dense ~nodes:24 ~seed:11);
      ("win dag", W.win_move_dag 20);
      ("win random", W.win_move_random ~nodes:15 ~edges:30 ~seed:3)
    ]

let suite =
  [ ( "subsume",
      [ Alcotest.test_case "registry idempotent" `Quick
          test_registry_idempotent;
        Alcotest.test_case "filter fires, answers preserved" `Quick
          test_subsume_triggers_and_preserves_answers;
        Alcotest.test_case "strictly cheaper on bound pairs" `Quick
          test_subsume_strictly_cheaper_magic;
        Alcotest.test_case "inert without comparable pairs" `Quick
          test_no_comparable_pair_is_inert;
        Alcotest.test_case "WF engines agree on games" `Quick
          test_wf_agrees_on_games
      ] );
    ( "subsume:properties",
      List.map QCheck_alcotest.to_alcotest
        [ prop_subsume_preserves_answers;
          prop_subsume_preserves_answers_negation;
          prop_wellfounded_differential
        ] )
  ]

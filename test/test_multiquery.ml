(* Multi-query evaluation: one shared rewriting, several seeds; and
   goal batches over one prepared program, whose shared EDB base must
   make no observable difference. *)

open Datalog_ast
module S = Alexander.Solve
module O = Alexander.Options
module W = Alexander.Workloads

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let atom = Datalog_parser.Parser.atom_of_string

let single options program query =
  (S.run_exn ~options program query).S.answers

let test_batch_matches_singles () =
  let program = W.ancestor_chain 20 in
  let queries =
    List.map atom [ "anc(3, X)"; "anc(10, X)"; "anc(15, X)"; "anc(18, X)" ]
  in
  List.iter
    (fun strategy ->
      let options = { O.default with O.strategy } in
      match S.run_many ~options program queries with
      | Error e -> Alcotest.fail (Alexander.Errors.message e)
      | Ok results ->
        check tint "one result per query" (List.length queries)
          (List.length results);
        List.iter2
          (fun query (q, answers) ->
            check tbool "query preserved" true (Atom.equal q query);
            check tbool
              (O.strategy_name strategy ^ " batch = single")
              true
              (answers = single options program query))
          queries results)
    [ O.Seminaive; O.Magic; O.Supplementary; O.Alexander; O.Tabled ]

let test_mixed_binding_patterns () =
  let program = W.ancestor_chain 12 in
  let queries =
    List.map atom [ "anc(2, X)"; "anc(X, 9)"; "anc(3, 7)"; "anc(11, 2)" ]
  in
  let options = { O.default with O.strategy = O.Alexander } in
  match S.run_many ~options program queries with
  | Error e -> Alcotest.fail (Alexander.Errors.message e)
  | Ok results ->
    List.iter2
      (fun query (_, answers) ->
        check tbool "matches single run" true
          (answers = single options program query))
      queries results

let test_multiple_predicates () =
  let program = W.same_generation ~layers:3 ~width:3 in
  let program =
    Program.make
      ~facts:(Program.facts program)
      (Program.rules program
      @ [ Datalog_parser.Parser.rule_of_string "peer(X, Y) :- sg(X, Y), X != Y." ])
  in
  let queries = List.map atom [ "sg(0, X)"; "peer(0, X)" ] in
  match S.run_many program queries with
  | Error e -> Alcotest.fail (Alexander.Errors.message e)
  | Ok results ->
    List.iter2
      (fun query (_, answers) ->
        check tbool "each predicate answered" true
          (answers = single O.default program query))
      queries results

let test_empty_batch () =
  match S.run_many (W.ancestor_chain 3) [] with
  | Ok [] -> ()
  | Ok _ -> Alcotest.fail "expected empty"
  | Error e -> Alcotest.fail (Alexander.Errors.message e)

let prop_batch_equals_singles =
  QCheck.Test.make ~name:"run_many = n x run on random programs" ~count:30
    (QCheck.pair Gen.arb_positive_program
       (QCheck.make QCheck.Gen.(list_size (int_range 1 4) (int_bound 5))))
    (fun (program, consts) ->
      let queries =
        List.map
          (fun c -> Atom.app "p0" [ Term.int c; Term.var "Q" ])
          consts
      in
      match S.run_many program queries with
      | Error _ -> false
      | Ok results ->
        List.for_all2
          (fun query (_, answers) ->
            answers = single O.default program query)
          queries results)

(* -------------------------------------------------------------------- *)
(* Prepared programs: a batch of goals through one [S.prepare] reports
   exactly what a fresh [S.run] per goal does — only timings may differ. *)

module P = Datalog_engine.Profile
module C = Datalog_engine.Counters
module Db = Datalog_storage.Database
module R = Datalog_storage.Relation

let all_strategies =
  [ O.Naive; O.Seminaive; O.Magic; O.Supplementary; O.Supplementary_idb;
    O.Alexander; O.Tabled ]

(* Everything a report says except wall times and allocation. *)
let observable = function
  | Error e -> Error (Alexander.Errors.message e)
  | Ok r ->
    let p = r.S.profile in
    let c = r.S.counters in
    Ok
      ( ( r.S.answers,
          List.map (Format.asprintf "%a" Atom.pp) r.S.undefined,
          r.S.status,
          r.S.evaluator ),
        [ c.C.facts_derived; c.C.firings; c.C.probes; c.C.scanned;
          c.C.iterations; c.C.merge_steps; c.C.gallops; c.C.subsumed ],
        ( List.map
            (fun (w : P.rule_row) ->
              ( w.P.rule_text,
                [ w.P.evals; w.P.firings; w.P.probes; w.P.scanned;
                  w.P.derived; w.P.merge_steps; w.P.gallops; w.P.r_subsumed ]
              ))
            (P.rules p),
          List.map
            (fun (w : P.pred_row) ->
              ( w.P.pred_name,
                [ w.P.pred_arity; w.P.p_probes; w.P.p_scanned; w.P.p_derived;
                  w.P.p_merge_steps; w.P.p_gallops; w.P.p_subsumed ] ))
            (P.preds p),
          List.map
            (fun (w : P.round_row) ->
              [ w.P.round; w.P.round_stratum; w.P.round_derived ])
            (P.rounds p),
          List.map
            (fun (w : P.stratum_row) ->
              [ w.P.stratum; w.P.s_rounds; w.P.s_derived ])
            (P.strata p) ) )

(* A random program with facts over IDB predicates (so the magic family
   goes through [split_idb_facts]) and, half the time, stratified
   negation; and a batch of goals over IDB, EDB and unknown predicates. *)
let prepared_case_gen =
  QCheck.Gen.(
    let* program =
      oneof [ Gen.positive_program_gen; Gen.stratified_program_gen ]
    in
    let* idb_facts =
      list_size (int_range 1 4)
        (map3
           (fun p a b -> Atom.app p [ Term.int a; Term.int b ])
           (oneofl [ "p0"; "p1"; "p2" ])
           (int_bound 5) (int_bound 5))
    in
    let* goals =
      list_size (int_range 3 6)
        (frequency
           [ (6, Gen.any_bound_query_gen);
             (1, map (fun c -> Atom.app "e" [ Term.int c; Term.var "Q" ])
                   (int_bound 5));
             (1, map (fun c -> Atom.app "nowhere" [ Term.int c ]) (int_bound 5))
           ])
    in
    return
      ( Program.make
          ~facts:(Program.facts program @ idb_facts)
          (Program.rules program),
        goals ))

let arb_prepared_case =
  QCheck.make
    ~print:(fun (p, goals) ->
      Format.asprintf "%a@.%a" Program.pp p
        (Format.pp_print_list (fun ppf g ->
             Format.fprintf ppf "?- %a." Atom.pp g))
        goals)
    prepared_case_gen

(* The middle goal of every batch runs on a fact budget it exhausts on
   all but trivial goals: an interrupted evaluation must leave nothing
   behind for the goals after it. *)
let goal_options strategy goals =
  let middle = List.length goals / 2 in
  List.mapi
    (fun i _ ->
      { O.default with
        O.strategy;
        profile = true;
        limits =
          (if i = middle then Datalog_engine.Limits.make ~max_facts:2 ()
           else Datalog_engine.Limits.none)
      })
    goals

let prop_prepared_equals_fresh =
  QCheck.Test.make ~name:"one prepared batch = fresh run per goal" ~count:25
    arb_prepared_case (fun (program, goals) ->
      List.for_all
        (fun strategy ->
          let options = goal_options strategy goals in
          let prepared = S.prepare program in
          let batch =
            List.map2
              (fun options goal ->
                observable (S.run_prepared ~options prepared goal))
              options goals
          in
          let fresh =
            List.map2
              (fun options goal -> observable (S.run ~options program goal))
              options goals
          in
          batch = fresh)
        all_strategies)

(* A whole batch, budget exhaustion included, leaves the first goal's
   database as it was: its EDB relations — shared with the prepared
   base — still hold exactly the program's facts, and its private
   relations are not touched by the goals after it.  The EDB predicate
   [m_anc__bf] clashes with the magic rewrite's magic predicate, whose
   seeds and rules then write it: that goal must not write the base. *)
let test_base_unchanged () =
  let ancestors = W.ancestor_chain 12 in
  let program =
    Program.make
      ~facts:(atom "m_anc__bf(7)" :: Program.facts ancestors)
      (Program.rules ancestors)
  in
  let edge = Pred.make "edge" 2 in
  let contents db =
    List.map
      (fun p -> (Pred.name p, List.sort compare (R.to_list (Db.rel db p))))
      (Db.preds db)
  in
  let edb_facts =
    List.sort compare
      (List.map Datalog_storage.Tuple.of_atom (Program.facts_for program edge))
  in
  List.iter
    (fun strategy ->
      let name = O.strategy_name strategy in
      let prepared = S.prepare program in
      let goals = List.map atom [ "anc(5, X)"; "anc(2, X)"; "anc(X, 9)" ] in
      (* the first goal's database, and its contents right after it ran *)
      let first = ref None in
      List.iter2
        (fun options goal ->
          match S.run_prepared ~options prepared goal with
          | Error e -> Alcotest.fail (Alexander.Errors.message e)
          | Ok r ->
            if Option.is_none !first then
              first := Some (r.S.db, contents r.S.db))
        (goal_options strategy goals) goals;
      let db, before = Option.get !first in
      check tbool (name ^ ": shared EDB holds the facts") true
        (List.assoc "edge" (contents db) = edb_facts);
      check tbool (name ^ ": first goal's database unchanged") true
        (contents db = before))
    all_strategies

let suite =
  [ ( "multiquery",
      [ Alcotest.test_case "batch = singles" `Quick test_batch_matches_singles;
        Alcotest.test_case "mixed bindings" `Quick test_mixed_binding_patterns;
        Alcotest.test_case "multiple predicates" `Quick test_multiple_predicates;
        Alcotest.test_case "empty batch" `Quick test_empty_batch;
        Alcotest.test_case "prepared base unchanged" `Quick test_base_unchanged
      ] );
    ( "multiquery:properties",
      List.map QCheck_alcotest.to_alcotest
        [ prop_batch_equals_singles; prop_prepared_equals_fresh ] )
  ]

(* Incremental maintenance: semi-naive additions and DRed deletions must
   leave the database identical to full recomputation. *)

open Datalog_ast
open Datalog_storage
module I = Datalog_engine.Incremental
module W = Alexander.Workloads

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let atom = Datalog_parser.Parser.atom_of_string
let prog = Datalog_parser.Parser.program_of_string

let saturate program =
  match Datalog_engine.Stratified.run program with
  | Ok outcome -> outcome.Datalog_engine.Stratified.db
  | Error msg -> Alcotest.fail msg

let db_facts db = Gen.db_facts_of (Database.preds db) db

let cnt () = Datalog_engine.Counters.create ()

let test_add_extends_closure () =
  let program = W.ancestor_chain 5 in
  let db = saturate program in
  let before = Database.cardinal db (Pred.make "anc" 2) in
  (* connect node 5 to a new node 6 *)
  (match I.add_facts (cnt ()) program db [ atom "edge(5, 6)" ] with
  | Ok n -> check tbool "inserted something" true (n > 0)
  | Error e -> Alcotest.fail e);
  let after = Database.cardinal db (Pred.make "anc" 2) in
  (* every old node now reaches 6: 6 new anc facts + the edge *)
  check tint "six new ancestor pairs" (before + 6) after;
  check tbool "anc(0,6)" true (Database.mem_atom db (atom "anc(0, 6)"))

let test_add_equals_recompute () =
  let program = W.ancestor_tree ~depth:3 ~fanout:2 in
  let db = saturate program in
  let additions = [ atom "edge(6, 100)"; atom "edge(100, 101)" ] in
  (match I.add_facts (cnt ()) program db additions with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let full =
    saturate
      (Program.make
         ~facts:(Program.facts program @ additions)
         (Program.rules program))
  in
  check tbool "incremental = recomputed" true (db_facts db = db_facts full)

let test_add_duplicate_noop () =
  let program = W.ancestor_chain 4 in
  let db = saturate program in
  let before = Database.total_facts db in
  (match I.add_facts (cnt ()) program db [ atom "edge(0, 1)" ] with
  | Ok n -> check tint "nothing new" 0 n
  | Error e -> Alcotest.fail e);
  check tint "size unchanged" before (Database.total_facts db)

let test_remove_equals_recompute () =
  let program = W.ancestor_chain 8 in
  let db = saturate program in
  (match I.remove_facts (cnt ()) program db [ atom "edge(3, 4)" ] with
  | Ok n -> check tbool "removed something" true (n > 0)
  | Error e -> Alcotest.fail e);
  let remaining_facts =
    List.filter
      (fun a -> not (Atom.equal a (atom "edge(3, 4)")))
      (Program.facts program)
  in
  let full = saturate (Program.make ~facts:remaining_facts (Program.rules program)) in
  check tbool "incremental = recomputed" true (db_facts db = db_facts full);
  check tbool "cut chain: 0 no longer reaches 8" false
    (Database.mem_atom db (atom "anc(0, 8)"))

let test_remove_rederives_alternatives () =
  (* two parallel paths 0->1->3 and 0->2->3: removing one edge keeps
     anc(0,3) alive through the other *)
  let program =
    prog
      "anc(X, Y) :- edge(X, Y). anc(X, Y) :- edge(X, Z), anc(Z, Y).\n\
       edge(0, 1). edge(1, 3). edge(0, 2). edge(2, 3)."
  in
  let db = saturate program in
  (match I.remove_facts (cnt ()) program db [ atom "edge(0, 1)" ] with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  check tbool "anc(0,3) survives via 0->2->3" true
    (Database.mem_atom db (atom "anc(0, 3)"));
  check tbool "anc(0,1) gone" false (Database.mem_atom db (atom "anc(0, 1)"))

let test_negation_rejected () =
  let program = prog "p(X) :- e(X), not q(X). q(1). e(1). e(2)." in
  let db = Database.of_facts (Program.facts program) in
  check tbool "additions rejected" true
    (Result.is_error (I.add_facts (cnt ()) program db [ atom "e(3)" ]));
  check tbool "deletions rejected" true
    (Result.is_error (I.remove_facts (cnt ()) program db [ atom "e(1)" ]))

let prop_incremental_add_equals_recompute =
  QCheck.Test.make
    ~name:"incremental additions = recomputation on random programs"
    ~count:40
    (QCheck.pair Gen.arb_positive_program
       (QCheck.make
          QCheck.Gen.(
            list_size (int_range 1 4) (pair (int_bound 5) (int_bound 5)))))
    (fun (program, new_edges) ->
      let db = saturate program in
      let additions =
        List.map
          (fun (a, b) -> Atom.app "e" [ Term.int a; Term.int b ])
          new_edges
      in
      match I.add_facts (cnt ()) program db additions with
      | Error _ -> false
      | Ok _ ->
        let full =
          saturate
            (Program.make
               ~facts:(Program.facts program @ additions)
               (Program.rules program))
        in
        db_facts db = db_facts full)

let prop_incremental_remove_equals_recompute =
  QCheck.Test.make
    ~name:"DRed deletions = recomputation on random programs" ~count:40
    (QCheck.pair Gen.arb_positive_program (QCheck.make QCheck.Gen.(int_bound 100)))
    (fun (program, pick) ->
      let facts = Program.facts program in
      QCheck.assume (facts <> []);
      let victim = List.nth facts (pick mod List.length facts) in
      let db = saturate program in
      match I.remove_facts (cnt ()) program db [ victim ] with
      | Error _ -> false
      | Ok _ ->
        let remaining = List.filter (fun a -> not (Atom.equal a victim)) facts in
        let full =
          saturate (Program.make ~facts:remaining (Program.rules program))
        in
        db_facts db = db_facts full)

(* [remove_facts] reads only the rules and the facts over derived
   predicates: handing it just those gives the same count and the same
   database as the whole program. *)
let prop_remove_reads_rules_and_idb_facts =
  QCheck.Test.make ~name:"DRed with rules + IDB facts = with whole program"
    ~count:40
    (QCheck.pair Gen.arb_positive_program_idb_facts
       (QCheck.make QCheck.Gen.(list_size (int_range 1 3) (int_bound 100))))
    (fun (program, picks) ->
      let facts = Program.facts program in
      let victims =
        List.map (fun i -> List.nth facts (i mod List.length facts)) picks
      in
      let core =
        Program.make
          ~facts:
            (List.filter
               (fun a -> Program.is_idb program (Atom.pred a))
               facts)
          (Program.rules program)
      in
      let removed p =
        let db = saturate program in
        match I.remove_facts (cnt ()) p db victims with
        | Ok n -> (n, db_facts db)
        | Error msg -> QCheck.Test.fail_report msg
      in
      removed program = removed core)

let suite =
  [ ( "incremental",
      [ Alcotest.test_case "add extends closure" `Quick test_add_extends_closure;
        Alcotest.test_case "add = recompute" `Quick test_add_equals_recompute;
        Alcotest.test_case "duplicate add" `Quick test_add_duplicate_noop;
        Alcotest.test_case "remove = recompute" `Quick test_remove_equals_recompute;
        Alcotest.test_case "re-derivation" `Quick test_remove_rederives_alternatives;
        Alcotest.test_case "negation rejected" `Quick test_negation_rejected
      ] );
    ( "incremental:properties",
      List.map QCheck_alcotest.to_alcotest
        [ prop_incremental_add_equals_recompute;
          prop_incremental_remove_equals_recompute;
          prop_remove_reads_rules_and_idb_facts
        ] )
  ]

(* Tabled (OLDT/QSQR-style) top-down evaluation: answer correctness and
   the call/answer correspondence with the Alexander templates rewriting
   (the procedural side of Seki's comparison). *)

open Datalog_ast
open Datalog_storage
module T = Datalog_engine.Tabled
module P = Datalog_engine.Plan
module W = Alexander.Workloads
module O = Alexander.Options
module S = Alexander.Solve

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let prog = Datalog_parser.Parser.program_of_string
let atom = Datalog_parser.Parser.atom_of_string

let direct_answers program query =
  (S.run_exn ~options:{ O.default with O.strategy = O.Seminaive } program query)
    .S.answers

let t_run_exn ?limits ?plan program query =
  match T.run ?limits ?plan program query with
  | Ok outcome -> outcome
  | Error msg -> Alcotest.fail msg

let test_tabled_ancestor () =
  let program = W.ancestor_chain 12 in
  let query = atom "anc(4, X)" in
  let outcome = t_run_exn program query in
  check tbool "answers agree with direct" true
    (outcome.T.answers = direct_answers program query);
  (* calls: one per node reachable from 4 along edges (nodes 4..12) *)
  check tint "calls tabled" 9
    (T.calls_for outcome (Pred.make "anc" 2) "bf")

let test_tabled_same_generation () =
  let program = W.same_generation ~layers:4 ~width:4 in
  let query = atom "sg(0, X)" in
  let outcome = t_run_exn program query in
  check tbool "answers agree" true
    (outcome.T.answers = direct_answers program query)

let test_tabled_ground_query () =
  let program = W.ancestor_chain 10 in
  check tint "provable ground goal" 1
    (List.length (t_run_exn program (atom "anc(2, 7)")).T.answers);
  check tint "unprovable ground goal" 0
    (List.length (t_run_exn program (atom "anc(7, 2)")).T.answers)

let test_tabled_cycle_terminates () =
  (* plain SLD loops on cyclic data; tabling must terminate *)
  let program =
    Program.make ~facts:(W.cycle ~pred:"edge" 6) (W.ancestor_rules ())
  in
  let outcome = t_run_exn program (atom "anc(0, X)") in
  check tint "all six nodes reachable" 6 (List.length outcome.T.answers)

let test_tabled_left_recursion_terminates () =
  (* left-recursive rule: anc(X,Y) :- anc(X,Z), edge(Z,Y) — Prolog would
     loop immediately, tabling does not *)
  let program =
    Program.make
      ~facts:(W.chain ~pred:"edge" 8)
      (W.ancestor_rules_right ())
  in
  let outcome = t_run_exn program (atom "anc(2, X)") in
  check tint "six answers" 6 (List.length outcome.T.answers)

let negation () =
  prog
    "link(X, Y) :- edge(X, Y). link(X, Y) :- edge(X, Z), link(Z, Y).\n\
     broken(X, Y) :- pair(X, Y), not link(X, Y).\n\
     edge(1, 2). edge(2, 3). edge(4, 5).\n\
     pair(1, 3). pair(1, 5). pair(4, 2)."

let test_tabled_stratified_negation () =
  let program = negation () in
  let query = atom "broken(1, Y)" in
  let outcome = t_run_exn program query in
  check tbool "negation handled" true
    (outcome.T.answers = direct_answers program query)

let test_tabled_rejects_unstratified () =
  let program = W.win_move_dag 3 in
  match T.run program (atom "win(X)") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "win-move must be rejected by the tabled engine"

let test_tabled_edb_query () =
  let program = W.ancestor_chain 5 in
  let outcome = t_run_exn program (atom "edge(2, X)") in
  check tint "edb answered directly" 1 (List.length outcome.T.answers);
  check tint "no tables created" 0 (List.length outcome.T.calls)

(* The OLDT <-> Alexander correspondence: the tabled calls are exactly the
   call_p^a tuples and the union of a (predicate, adornment)'s tables
   exactly the ans_p^a tuples of the Alexander-rewritten program under
   the same left-to-right selection, tuple for tuple.  The comparison is
   with the {e unfiltered} rewriting: the subsumption filter deliberately
   thins call_ relations (dropped calls live in their sub_ companions).
   Returns the (predicate, adornment) pairs that differ. *)
let correspondence_mismatches program query =
  let outcome = t_run_exn program query in
  let report =
    S.run_exn
      ~options:{ O.default with O.strategy = O.Alexander; subsume = false }
      program query
  in
  let rw = Option.get report.S.rewritten in
  let relation p = List.sort Tuple.compare (Database.tuples report.S.db p) in
  let tabled src binding f =
    List.concat_map
      (fun (c, table) ->
        if Pred.equal c.T.call_pred src && T.call_binding c = binding then
          f c table
        else [])
      outcome.T.tables
    |> List.sort_uniq Tuple.compare
  in
  Datalog_rewrite.Registry.fold
    (fun p kind bad ->
      let differs what src b tuples =
        let binding = Datalog_rewrite.Binding.to_string b in
        if relation p = tabled src binding tuples then bad
        else Format.asprintf "%s of %a^%s" what Pred.pp src binding :: bad
      in
      match kind with
      (* the seed predicate is registered twice; skip its wider copy *)
      | Datalog_rewrite.Registry.Call (src, b)
        when Pred.arity p = Datalog_rewrite.Binding.bound_count b ->
        differs "calls" src b (fun c _ ->
            [ Array.of_list (List.map snd c.T.bound) ])
      | Datalog_rewrite.Registry.Answer (src, b) ->
        differs "answers" src b (fun _ table -> table)
      | _ -> bad)
    rw.Datalog_rewrite.Rewritten.registry []

let assert_corresponds program query =
  check Alcotest.(list string) "tabled calls/answers = call_/ans_" []
    (correspondence_mismatches program query)

let test_correspondence_ancestor () =
  assert_corresponds (W.ancestor_chain 15) (atom "anc(5, X)")

let test_correspondence_sg () =
  assert_corresponds (W.same_generation ~layers:4 ~width:3) (atom "sg(0, X)")

let nonlinear_tc () =
  Program.make ~facts:(W.chain ~pred:"edge" 10) (W.tc_nonlinear_rules ())

let test_correspondence_nonlinear () =
  assert_corresponds (nonlinear_tc ()) (atom "tc(3, X)")

let multipred () =
  prog
    "buys(X, Y) :- trendy(X), likes(X, Y).\n\
     likes(X, Y) :- knows(X, Z), likes(Z, Y).\n\
     likes(X, Y) :- owns(X, Y).\n\
     trendy(X) :- knows(X, Z), trendy(Z).\n\
     trendy(X) :- founder(X).\n\
     knows(1, 2). knows(2, 3). knows(3, 4). knows(4, 2).\n\
     owns(4, 9). owns(3, 8). founder(3).\n"

let test_correspondence_multipred () =
  assert_corresponds (multipred ()) (atom "buys(1, X)")

let prop_tabled_agrees_with_seminaive =
  QCheck.Test.make ~name:"tabled answers = semi-naive answers" ~count:50
    Gen.arb_positive_program_query (fun (program, query) ->
      match T.run program query with
      | Error _ -> false
      | Ok outcome -> outcome.T.answers = direct_answers program query)

let prop_tabled_corresponds_to_alexander =
  QCheck.Test.make
    ~name:"tabled calls/answers = Alexander call/ans relations" ~count:40
    Gen.arb_positive_program_query (fun (program, query) ->
      match correspondence_mismatches program query with
      | [] -> true
      | bad -> QCheck.Test.fail_report (String.concat ", " bad))

(* Tabled evaluation under the left-to-right and the cost SIP. *)
let sips = [ ("ltr", P.config ()); ("cost", P.config ~sip:P.Cost ()) ]

(* Each table is the model of its predicate restricted to the call: the
   tuples of the semi-naive model whose bound positions carry the call's
   values.  [`Nonempty] when some table holds an answer, so a sweep can
   tell vacuous runs apart. *)
let table_slices plan (program, query) =
  match T.run ~plan program query, Datalog_engine.Stratified.run program with
  | Error _, _ | _, Error _ -> `Skip
  | Ok outcome, Ok model ->
    let slice (c : T.call) =
      let args =
        Array.init (Pred.arity c.T.call_pred) (fun i ->
            match List.assoc_opt i c.T.bound with
            | Some v -> Term.const (Code.to_value v)
            | None -> Term.var (Printf.sprintf "V%d" i))
      in
      match Database.find model.Datalog_engine.Stratified.db c.T.call_pred with
      | None -> []
      | Some rel ->
        Relation.matching rel (Tuple.pattern (Atom.make c.T.call_pred args))
    in
    let sorted = List.sort Tuple.compare in
    let bad =
      List.find_opt
        (fun (c, table) -> sorted table <> sorted (slice c))
        outcome.T.tables
    in
    match bad with
    | Some (c, _) ->
      `Mismatch
        (Format.asprintf "table of %a^%s" Pred.pp c.T.call_pred
           (T.call_binding c))
    | None ->
      if List.exists (fun (_, table) -> table <> []) outcome.T.tables then
        `Nonempty
      else `Empty

let prop_tables_are_model_slices =
  let gens =
    [ ("positive", Gen.arb_positive_program_query);
      ("stratified", Gen.arb_stratified_program_query) ]
  in
  List.concat_map
    (fun (sip, plan) ->
      List.map
        (fun (tag, arb) ->
          QCheck.Test.make
            ~name:(Printf.sprintf "tables = model slices (%s, %s)" sip tag)
            ~count:100 arb
            (fun case ->
              match table_slices plan case with
              | `Mismatch msg -> QCheck.Test.fail_report msg
              | `Skip -> QCheck.assume_fail ()
              | `Empty | `Nonempty -> true))
        gens)
    sips

(* The slice property above is vacuous on empty tables: on 300 cases of
   each generator (fixed seed), enough runs must produce answers. *)
let test_slices_not_vacuous () =
  List.iter
    (fun (tag, arb, floor) ->
      let rand = Random.State.make [| 27 |] in
      let nonempty = ref 0 in
      for _ = 1 to 300 do
        match table_slices (P.config ()) (QCheck.gen arb rand) with
        | `Nonempty -> incr nonempty
        | `Mismatch msg -> Alcotest.failf "%s: %s" tag msg
        | `Skip | `Empty -> ()
      done;
      if !nonempty < floor then
        Alcotest.failf "%s: only %d of 300 cases had a non-empty table" tag
          !nonempty)
    [ ("positive", Gen.arb_positive_program_query, 240);
      ("stratified", Gen.arb_stratified_program_query, 100) ]

(* The join work of [Tabled.run] on the fixed programs above, pinned:
   (probes, scanned, firings, facts_derived, iterations) under the
   left-to-right and the cost SIP.  A call's bound head variables are
   bound on entry to its cost order, so on these bound queries the cost
   order starts from the bound argument, as the written order does. *)
let test_golden_counters () =
  List.iter
    (fun (name, program, query, expected) ->
      List.iter2
        (fun (sip, plan) expected ->
          let c = (t_run_exn ~plan (program ()) (atom query)).T.counters in
          check
            Alcotest.(list int)
            (Printf.sprintf "%s (%s)" name sip)
            expected
            Datalog_engine.Counters.
              [ c.probes; c.scanned; c.firings; c.facts_derived; c.iterations ])
        sips expected)
    [ ( "ancestor", (fun () -> W.ancestor_chain 15), "anc(5, X)",
        [ [ 59; 83; 64; 55; 20 ]; [ 59; 83; 64; 55; 20 ] ] );
      ( "same generation", (fun () -> W.same_generation ~layers:4 ~width:3),
        "sg(0, X)", [ [ 112; 161; 87; 21; 19 ]; [ 112; 161; 87; 21; 19 ] ] );
      ( "nonlinear tc", nonlinear_tc, "tc(3, X)",
        [ [ 80; 136; 96; 28; 20 ]; [ 80; 136; 96; 28; 20 ] ] );
      ( "multi-predicate", multipred, "buys(1, X)",
        [ [ 58; 44; 24; 14; 21 ]; [ 58; 44; 24; 14; 21 ] ] );
      ( "stratified negation", negation, "broken(1, Y)",
        [ [ 20; 9; 3; 3; 8 ]; [ 22; 15; 7; 5; 8 ] ] ) ]

(* A both-unbound [=] aliases its variables, as in semi-naive
   evaluation. *)
let test_alias () =
  let program =
    prog "e(1, 1). e(2, 3). e(4, 4). p(X, Y) :- X = Y, e(X, Y)."
  in
  let query = atom "p(X, Y)" in
  let shown =
    List.map (fun t ->
        Format.asprintf "%a" Atom.pp (Tuple.to_atom (Atom.pred query) t))
  in
  check Alcotest.(list string) "answers" [ "p(1, 1)"; "p(4, 4)" ]
    (shown (t_run_exn program query).T.answers);
  check Alcotest.(list string) "as seminaive" [ "p(1, 1)"; "p(4, 4)" ]
    (shown (direct_answers program query))

let suite =
  [ ( "tabled",
      [ Alcotest.test_case "ancestor" `Quick test_tabled_ancestor;
        Alcotest.test_case "same generation" `Quick test_tabled_same_generation;
        Alcotest.test_case "ground queries" `Quick test_tabled_ground_query;
        Alcotest.test_case "cycles terminate" `Quick test_tabled_cycle_terminates;
        Alcotest.test_case "left recursion terminates" `Quick
          test_tabled_left_recursion_terminates;
        Alcotest.test_case "stratified negation" `Quick
          test_tabled_stratified_negation;
        Alcotest.test_case "rejects unstratified" `Quick
          test_tabled_rejects_unstratified;
        Alcotest.test_case "edb query" `Quick test_tabled_edb_query;
        Alcotest.test_case "corresponds: ancestor" `Quick
          test_correspondence_ancestor;
        Alcotest.test_case "corresponds: same generation" `Quick
          test_correspondence_sg;
        Alcotest.test_case "corresponds: nonlinear tc" `Quick
          test_correspondence_nonlinear;
        Alcotest.test_case "corresponds: multi-predicate" `Quick
          test_correspondence_multipred;
        Alcotest.test_case "golden counters" `Quick test_golden_counters;
        Alcotest.test_case "both-unbound alias" `Quick test_alias;
        Alcotest.test_case "model slices not vacuous" `Quick
          test_slices_not_vacuous
      ] );
    ( "tabled:properties",
      List.map QCheck_alcotest.to_alcotest
        ([ prop_tabled_agrees_with_seminaive;
           prop_tabled_corresponds_to_alexander
         ]
        @ prop_tables_are_model_slices) )
  ]

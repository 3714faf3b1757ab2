(* Serial determinism: evaluating the same query twice yields identical
   answers and identical counters — all eight fields, gallops included —
   for every strategy and negation mode.  The bench regression gate
   compares counters at --tolerance 0, so any nondeterminism in the
   engine would show up there as noise; these tests pin it in-process.
   Plus the laws of [Counters.add], which totals the counters of several
   evaluations. *)

module O = Alexander.Options
module S = Alexander.Solve
module W = Alexander.Workloads
module C = Datalog_engine.Counters
module P = Datalog_engine.Profile
module J = Datalog_engine.Json

let check = Alcotest.check
let tbool = Alcotest.bool

let atom = Datalog_parser.Parser.atom_of_string

let run_exn ~options program query =
  match S.run ~options program query with
  | Ok report -> report
  | Error e -> Alcotest.fail (Alexander.Errors.message e)

(* a copy, so later runs cannot alias the record under comparison *)
let snapshot (c : C.t) =
  let s = C.create () in
  C.add s c;
  s

let outcome (r : S.report) = (r.S.answers, snapshot r.S.counters)

(* run twice and compare answers and every counter *)
let check_repeats name options program query =
  let first = outcome (run_exn ~options program query) in
  let second = outcome (run_exn ~options program query) in
  check tbool (name ^ ": answers identical") true (fst first = fst second);
  check tbool
    (name ^ ": counters identical")
    true
    (snd first = snd second);
  check tbool (name ^ ": derived something") true
    ((snd first).C.facts_derived > 0)

let with_strategy ?(profile = false) strategy =
  { O.default with O.strategy; profile }

(* -------------------------------------------------------------------- *)
(* Repeated runs *)

let test_repeat_chain () =
  let program = W.ancestor_chain 260 in
  let query = atom "anc(100, X)" in
  List.iter
    (fun strategy ->
      check_repeats
        ("chain/" ^ O.strategy_name strategy)
        (with_strategy strategy) program query)
    [ O.Seminaive; O.Magic; O.Alexander; O.Supplementary ]

let test_repeat_same_generation () =
  let program = W.same_generation ~layers:6 ~width:10 in
  let query = atom "sg(0, X)" in
  List.iter
    (fun strategy ->
      check_repeats
        ("sg/" ^ O.strategy_name strategy)
        (with_strategy strategy) program query)
    [ O.Seminaive; O.Magic; O.Alexander; O.Supplementary_idb ]

let test_repeat_negation () =
  let program =
    Datalog_parser.Parser.program_of_string
      ("reach(X) :- source(X).\n\
        reach(Y) :- reach(X), edge(X, Y).\n\
        dead(X) :- node(X), not reach(X).\n\
        source(0)."
      ^ String.concat ""
          (List.init 150 (fun i -> Printf.sprintf "edge(%d, %d)." i (i + 1)))
      ^ String.concat ""
          (List.init 200 (fun i -> Printf.sprintf "node(%d)." i)))
  in
  let query = atom "dead(X)" in
  check_repeats "negation/seminaive" (with_strategy O.Seminaive) program query;
  let report = run_exn ~options:(with_strategy O.Seminaive) program query in
  check Alcotest.int "nodes past the chain are dead" 49
    (List.length report.S.answers)

let test_repeat_tabled () =
  check_repeats "chain/tabled" (with_strategy O.Tabled)
    (W.ancestor_chain 120) (atom "anc(40, X)")

let test_repeat_three_valued () =
  let program = W.win_move_dag 6 in
  List.iter
    (fun negation ->
      check_repeats
        ("win-move/" ^ O.negation_name negation)
        { (with_strategy O.Seminaive) with O.negation }
        program (atom "win(X)"))
    [ O.Conditional; O.Well_founded ]

let rule_rows (r : S.report) =
  List.map
    (fun (row : P.rule_row) ->
      ( row.P.rule_text,
        row.P.evals,
        row.P.firings,
        row.P.probes,
        row.P.scanned,
        row.P.derived,
        row.P.merge_steps,
        row.P.gallops ))
    (P.rules r.S.profile)

(* rule rows repeat too, in the same first-seen order *)
let test_repeat_profile_rows () =
  let program = W.ancestor_chain 260 in
  let query = atom "anc(100, X)" in
  let options = with_strategy ~profile:true O.Seminaive in
  let first = rule_rows (run_exn ~options program query) in
  let second = rule_rows (run_exn ~options program query) in
  check tbool "has rule rows" true (first <> []);
  check tbool "rule rows identical" true (first = second)

(* turning the profile on observes the run without changing its work *)
let test_profiling_changes_no_counter () =
  let program = W.same_generation ~layers:4 ~width:5 in
  let query = atom "sg(0, X)" in
  List.iter
    (fun strategy ->
      let plain = outcome (run_exn ~options:(with_strategy strategy) program query) in
      let profiled =
        outcome
          (run_exn ~options:(with_strategy ~profile:true strategy) program query)
      in
      check tbool
        (O.strategy_name strategy ^ ": same answers and counters profiled")
        true (plain = profiled))
    O.all_strategies

(* -------------------------------------------------------------------- *)
(* Counters.add on random counter traces *)

(* one trace event bumps one field by a small amount *)
type event = Ev of int * int (* field index 0..7, delta *)

let apply_event (c : C.t) (Ev (field, d)) =
  match field with
  | 0 -> c.C.facts_derived <- c.C.facts_derived + d
  | 1 -> c.C.firings <- c.C.firings + d
  | 2 -> c.C.probes <- c.C.probes + d
  | 3 -> c.C.scanned <- c.C.scanned + d
  | 4 -> c.C.iterations <- c.C.iterations + d
  | 5 -> c.C.merge_steps <- c.C.merge_steps + d
  | 6 -> c.C.gallops <- c.C.gallops + d
  | _ -> c.C.subsumed <- c.C.subsumed + d

let of_events evs =
  let c = C.create () in
  List.iter (apply_event c) evs;
  c

let arb_events =
  QCheck.make
    ~print:(fun evs ->
      String.concat ";"
        (List.map (fun (Ev (f, d)) -> Printf.sprintf "%d+=%d" f d) evs))
    QCheck.Gen.(
      list_size (int_bound 60)
        (let* field = int_bound 7 in
         let* d = int_bound 9 in
         return (Ev (field, d))))

let split_at n l =
  let rec go i acc = function
    | rest when i = n -> (List.rev acc, rest)
    | [] -> (List.rev acc, [])
    | x :: rest -> go (i + 1) (x :: acc) rest
  in
  go 0 [] l

let sum_of parts =
  let acc = C.create () in
  List.iter (C.add acc) parts;
  acc

let prop_add_assoc_comm =
  QCheck.Test.make ~name:"Counters.add is associative and commutative"
    ~count:200
    (QCheck.triple arb_events arb_events arb_events)
    (fun (e1, e2, e3) ->
      let a () = of_events e1 and b () = of_events e2 and c () = of_events e3 in
      let left = sum_of [ a (); b (); c () ] in
      let right = sum_of [ a (); sum_of [ b (); c () ] ] in
      let reversed = sum_of [ c (); b (); a () ] in
      left = right && left = reversed)

let prop_split_merge =
  QCheck.Test.make
    ~name:"Counters.add: split-then-total = straight-line on random traces"
    ~count:200
    (QCheck.pair arb_events QCheck.small_nat)
    (fun (evs, cut) ->
      let cut = if evs = [] then 0 else cut mod (List.length evs + 1) in
      let l, r = split_at cut evs in
      (* a fresh set is the identity *)
      of_events evs = sum_of [ of_events l; of_events r; C.create () ])

let prop_reset =
  QCheck.Test.make ~name:"Counters.reset returns any trace to a fresh set"
    ~count:100 arb_events (fun evs ->
      let c = of_events evs in
      C.reset c;
      c = C.create ())

let prop_to_json_sums =
  QCheck.Test.make
    ~name:"Counters.to_json of a total is the field-wise sum" ~count:100
    (QCheck.pair arb_events arb_events)
    (fun (e1, e2) ->
      let field json key =
        match J.member key json with Some (J.Int n) -> n | _ -> -1
      in
      let a = C.to_json (of_events e1) and b = C.to_json (of_events e2) in
      let total = C.to_json (sum_of [ of_events e1; of_events e2 ]) in
      J.keys total
      = [ "facts_derived"; "firings"; "probes"; "scanned"; "iterations";
          "merge_steps"; "gallops"; "subsumed" ]
      && List.for_all
           (fun key -> field total key = field a key + field b key)
           (J.keys total))

let suite =
  [ ( "determinism",
      [ Alcotest.test_case "chain workloads" `Quick test_repeat_chain;
        Alcotest.test_case "same generation" `Quick test_repeat_same_generation;
        Alcotest.test_case "negation" `Quick test_repeat_negation;
        Alcotest.test_case "tabled" `Quick test_repeat_tabled;
        Alcotest.test_case "three-valued negation" `Quick
          test_repeat_three_valued;
        Alcotest.test_case "profile rows" `Quick test_repeat_profile_rows;
        Alcotest.test_case "profiling changes no counter" `Quick
          test_profiling_changes_no_counter
      ] );
    ( "counters:add",
      List.map QCheck_alcotest.to_alcotest
        [ prop_add_assoc_comm; prop_split_merge; prop_reset; prop_to_json_sums ]
    )
  ]

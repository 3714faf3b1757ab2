(* Differential tests for the compiled join-plan path (Plan) against the
   interpreted rule application kept in the test suite ([Interp]) — the
   oracle.  The comparison is per rule application: every rule variant a
   run evaluated is applied by both on identically built databases, and
   under the left-to-right SIP the two must agree emission-for-emission
   and counter-for-counter; under the cost-aware SIP the emitted facts
   stay the same while the join work changes.  (Tabled evaluation is
   checked against the model and the Alexander rewriting in
   test_tabled.ml.)  Plus: unsafe-rule message parity, merge plans
   against hash plans in the incremental engine, a golden explain plan,
   and the Seki equivalence under both SIPs. *)

open Datalog_ast
open Datalog_storage
open Datalog_engine
module O = Alexander.Options
module S = Alexander.Solve
module E = Alexander.Equivalence
module C = Datalog_engine.Counters

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let tstr = Alcotest.string
let tstrings = Alcotest.(list string)

let prog = Datalog_parser.Parser.program_of_string
let atom = Datalog_parser.Parser.atom_of_string
let rule = Datalog_parser.Parser.rule_of_string

let opts ?(merge = true) ?(sips = Datalog_analysis.Sips.Ltr)
    ?(negation = O.Auto) strategy =
  { O.default with O.strategy; merge; sips; negation }

let firings (r : S.report) = r.S.counters.C.firings

(* ------------------------------------------------------------------ *)
(* One rule application, compiled against interpreted *)

(* The facts of a run, laid out in four parts as semi-naive rounds meet
   them: the EDB and a seeded quarter of the IDB start in the database,
   the second quarter is the first delta slice, the third and fourth
   arrive before the second and third application. *)
let layout ~seed ~idb db =
  let parts = Array.make 4 [] in
  List.iter
    (fun pred ->
      List.iter
        (fun t ->
          let k =
            if not (Pred.Set.mem pred idb) then 0
            else
              Hashtbl.hash
                (seed, Format.asprintf "%a" Atom.pp (Tuple.to_atom pred t))
              mod 4
          in
          parts.(k) <- (pred, t) :: parts.(k))
        (Database.tuples db pred))
    (List.sort Pred.compare (Database.preds db));
  Array.map List.rev parts

(* Three applications of one rule variant on a fresh database built from
   [parts], the way a fixpoint runs it: [make db] prepares the
   application once (a plan is compiled against [db]'s cardinalities at
   that point), each later application sees the facts the earlier ones
   emitted plus the next part, and every emitted fact is inserted as
   [Fixpoint.emit] does.  [delta_pos] reads the slice inserted since the
   previous application.  Returns the emissions, the join counters and
   the unsafe-rule message, if one was raised. *)
let applications parts ?delta_pos make =
  let db = Database.create () in
  let add = List.iter (fun (p, t) -> ignore (Database.add db p t)) in
  add parts.(0);
  let marks = ref (Database.marks db) in
  add parts.(1);
  let apply = make db in
  let cnt = Counters.create () in
  let log = ref [] in
  let emit p t =
    log := (p, t) :: !log;
    ignore (Database.add db p t)
  in
  let unsafe =
    match
      for k = 1 to 3 do
        let delta = Database.since db !marks in
        marks := Database.marks db;
        let rel_of j pred =
          Database.find (if Some j = delta_pos then delta else db) pred
        in
        apply cnt
          ~neg:(fun pred t -> not (Database.mem db pred t))
          ~rel_of emit;
        if k < 3 then add parts.(k + 1)
      done
    with
    | () -> None
    | exception Plan.Unsafe_rule msg -> Some msg
  in
  (List.rev !log, C.(cnt.probes, cnt.scanned, cnt.firings), unsafe)

let plan_of cfg ?delta_pos rule db =
  Plan.compile cfg ~card:(Database.cardinal db) ?delta_pos rule

(* The interpreter follows the plan's literal order: body position [k] of
   the reordered rule reads what original position [order.(k)] reads. *)
let interpreted cfg ?delta_pos rule db =
  let order = (Plan.info (plan_of cfg ?delta_pos rule db)).Plan.i_order in
  let body = Array.of_list (Rule.body rule) in
  let reordered =
    Rule.make (Rule.head rule) (List.map (Array.get body) order)
  in
  let order = Array.of_list order in
  fun cnt ~neg ~rel_of emit ->
    let rel_of k = rel_of order.(k) in
    Interp.apply_rule cnt ~rel_of ~neg reordered emit

let compiled cfg ?delta_pos rule db =
  let p = plan_of cfg ?delta_pos rule db in
  fun cnt ~neg ~rel_of emit -> Plan.run p cnt ~rel_of ~neg emit

let show_emits es =
  String.concat " "
    (List.map
       (fun (p, t) -> Format.asprintf "%a" Atom.pp (Tuple.to_atom p t))
       es)

(* Every variant of every rule — the full one and one per positive body
   position — applied by the plan and by the interpreter.  Under [Ltr]
   ([exact]) the emission sequences, join counters and unsafe-rule
   messages must coincide; under [Cost] the emitted sets and whether the
   rule was unsafe. *)
let per_application ?(seed = 0) cfg rules db =
  let idb =
    List.fold_left
      (fun acc r -> Pred.Set.add (Atom.pred (Rule.head r)) acc)
      Pred.Set.empty rules
  in
  let all_parts = layout ~seed ~idb db in
  let exact = cfg.Plan.sip = Plan.Ltr in
  let variant parts rule delta_pos =
    let run make = applications parts ?delta_pos (make cfg ?delta_pos rule) in
    let pe, pc, pu = run compiled and ie, ic, iu = run interpreted in
    let same =
      if exact then pe = ie && pc = ic && pu = iu
      else
        List.sort_uniq compare pe = List.sort_uniq compare ie
        && Option.is_some pu = Option.is_some iu
    in
    if same then Ok ()
    else
      Error
        (Format.asprintf "%a (delta %s):@.plan   %s@.interp %s" Rule.pp rule
           (match delta_pos with Some i -> string_of_int i | None -> "-")
           (show_emits pe) (show_emits ie))
  in
  List.fold_left
    (fun acc rule ->
      (* a rule application reads its body predicates and writes its head:
         the rest of the database is left out *)
      let used =
        Pred.Set.of_list
          (Atom.pred (Rule.head rule)
          :: List.filter_map
               (function
                 | Literal.Pos a | Literal.Neg a -> Some (Atom.pred a)
                 | Literal.Cmp _ -> None)
               (Rule.body rule))
      in
      let parts =
        Array.map (List.filter (fun (p, _) -> Pred.Set.mem p used)) all_parts
      in
      let positions =
        List.concat
          (List.mapi
             (fun i -> function
               | Literal.Pos _ -> [ Some i ]
               | Literal.Neg _ | Literal.Cmp _ -> [])
             (Rule.body rule))
      in
      List.fold_left
        (fun acc delta_pos ->
          Result.bind acc (fun () -> variant parts rule delta_pos))
        acc (None :: positions))
    (Ok ()) rules

let holds = function
  | Ok () -> true
  | Error msg -> QCheck.Test.fail_report msg

(* The rules a run evaluated: the rewritten ones, or the source's. *)
let evaluated program (r : S.report) =
  match r.S.rewritten with
  | Some rw -> rw.Datalog_rewrite.Rewritten.rules
  | None -> Program.rules program

(* ------------------------------------------------------------------ *)
(* qcheck: compiled = interpreted, per strategy *)

let strategies_under_test =
  [ O.Naive; O.Seminaive; O.Magic; O.Supplementary; O.Supplementary_idb;
    O.Alexander; O.Tabled ]

let prop_parity ~sip arb tag count =
  let cfg =
    match sip with
    | Plan.Ltr -> Plan.config ~merge:false ()
    | Plan.Cost -> Plan.config ~sip:Plan.Cost ()
  in
  List.map
    (fun strategy ->
      QCheck.Test.make
        ~name:
          (Printf.sprintf "plan = interpreter (%s, %s, %s)"
             (O.strategy_name strategy)
             (Datalog_analysis.Sips.strategy_name sip)
             tag)
        ~count (QCheck.pair arb QCheck.small_nat)
        (fun ((program, query), seed) ->
          let options = opts ~merge:false ~sips:sip strategy in
          match S.run ~options program query with
          | Error _ -> true
          | Ok r ->
            holds (per_application ~seed cfg (evaluated program r) r.S.db)))
    (* tabled evaluation runs its own executor over call tables; it is
       checked against the model and the Alexander rewriting in
       test_tabled.ml *)
    (List.filter (fun s -> s <> O.Tabled) strategies_under_test)

(* Programs with negation through recursion: the rules applied to the
   facts the conditional and well-founded evaluators reach, under a fact
   budget (a partial database is as good a test bed as a complete one). *)
let prop_unstratified =
  List.map
    (fun (name, facts_of) ->
      QCheck.Test.make
        ~name:(Printf.sprintf "plan = interpreter (%s evaluator, ltr)" name)
        ~count:20
        (QCheck.pair Gen.arb_unstratified_program QCheck.small_nat)
        (fun (program, seed) ->
          holds
            (per_application ~seed (Plan.config ~merge:false ())
               (Program.rules program) (facts_of program))))
    [ ( "conditional",
        fun p ->
          (Conditional.run ~limits:(Limits.make ~max_facts:2000 ()) p)
            .Conditional.true_db );
      ( "wellfounded",
        fun p ->
          (Wellfounded.run ~limits:(Limits.make ~max_facts:2000 ()) p)
            .Wellfounded.true_db )
    ]

(* ------------------------------------------------------------------ *)
(* Unit: comparison literals, including the both-unbound Eq alias *)

let cmp_program =
  prog
    "e(1, 2). e(2, 3). e(3, 4).\n\
     big(X) :- e(X, Y), Y > 2.\n\
     alias(X, Y) :- e(X, Z), Y = Z.\n\
     shifted(X, Y) :- e(X, Z), Y = 9, Z < 4."

let check_parity name program strategy query =
  let r =
    S.run_exn ~options:(opts ~merge:false strategy) program (atom query)
  in
  let cfg = Plan.config ~merge:false () in
  match per_application cfg (evaluated program r) r.S.db with
  | Ok () -> ()
  | Error msg ->
    Alcotest.failf "%s %s (%s): %s" name query (O.strategy_name strategy) msg

let test_cmp_parity () =
  List.iter
    (fun q ->
      List.iter
        (fun strategy -> check_parity "cmp" cmp_program strategy q)
        [ O.Seminaive; O.Alexander ])
    [ "big(X)"; "alias(1, Y)"; "shifted(2, Y)" ]

(* ------------------------------------------------------------------ *)
(* Unit: unsafe-rule message parity, rule by rule *)

let test_unsafe_parity () =
  let cases =
    [ (* comparison reached with an unbound variable *)
      "p(X) :- e(X, Y), W < Y.\ne(1, 2).";
      (* negative literal not ground at evaluation time *)
      "p(X) :- e(X, Y), not q(W).\nq(5, 5).\ne(1, 2).";
      (* non-ground head *)
      "p(X, W) :- e(X, Y).\ne(1, 2)."
    ]
  in
  List.iter
    (fun src ->
      let program = prog src in
      let db = Database.of_facts (Program.facts program) in
      let parts = layout ~seed:0 ~idb:Pred.Set.empty db in
      List.iter
        (fun r ->
          let cfg = Plan.config () in
          let _, _, compiled_msg = applications parts (compiled cfg r) in
          let _, _, interpreted_msg = applications parts (interpreted cfg r) in
          check tbool (Printf.sprintf "both raise (%s)" src) true
            (Option.is_some compiled_msg && Option.is_some interpreted_msg);
          check tstr "same message" (Option.get interpreted_msg)
            (Option.get compiled_msg))
        (Program.rules program))
    cases

(* ------------------------------------------------------------------ *)
(* Unit: semi-naive delta rules, compiled = interpreted *)

let test_delta_parity () =
  check_parity "delta" (Alexander.Workloads.ancestor_chain 60) O.Seminaive
    "anc(10, X)"

(* ------------------------------------------------------------------ *)
(* Unit: the incremental engine under merge and hash plans *)

let test_incremental_parity () =
  let program = Alexander.Workloads.ancestor_chain 30 in
  let run plan =
    let db = Database.of_facts (Program.facts program) in
    let cnt = Counters.create () in
    (match
       Incremental.add_facts cnt ~plan program db
         [ atom "edge(30, 31)"; atom "edge(31, 32)" ]
     with
    | Ok _ -> ()
    | Error msg -> Alcotest.fail msg);
    (match
       Incremental.remove_facts cnt ~plan program db [ atom "edge(5, 6)" ]
     with
    | Ok _ -> ()
    | Error msg -> Alcotest.fail msg);
    ( Gen.db_facts_of (Gen.idb_preds program) db,
      C.(cnt.facts_derived, cnt.firings, cnt.scanned) )
  in
  let facts_m, work_m = run (Plan.config ()) in
  let facts_h, work_h = run (Plan.config ~merge:false ()) in
  check tbool "same database" true (facts_m = facts_h);
  check tbool "same derivations" true (work_m = work_h)

(* ------------------------------------------------------------------ *)
(* Golden explain: the compiled plan of the canonical ancestor rule *)

let test_golden_explain () =
  let r = rule "anc(X, Y) :- edge(X, Z), anc(Z, Y)." in
  let cfg = Plan.config () in
  (* the full variant probes the rule's own head predicate, which is not
     frozen during a rule application — no merge fusion *)
  let info = Plan.info (Plan.compile cfg ~card:(fun _ -> 0) r) in
  check tstr "variant" "full" info.Plan.i_variant;
  check tstr "sip" "ltr" info.Plan.i_sip;
  check tstrings "steps"
    [ "scan edge/2 match[0:=X,1:=Z]";
      "probe anc/2 key[0=Z] match[1:=Y]";
      "emit anc(X,Y)"
    ]
    info.Plan.i_steps;
  (* the delta literal never changes mid-round, so the same probe fuses *)
  let delta = Plan.info (Plan.compile cfg ~card:(fun _ -> 0) ~delta_pos:1 r) in
  check tstr "delta variant" "delta@1" delta.Plan.i_variant;
  check tstrings "delta steps"
    [ "merge edge/2 match[0:=X,1:=Z] * anc/2 key[0=Z] match[1:=Y]";
      "emit anc(X,Y)"
    ]
    delta.Plan.i_steps;
  (* with merge fusion off, the unfused pair comes back *)
  let nomerge_cfg = Plan.config ~merge:false () in
  let nomerge =
    Plan.info (Plan.compile nomerge_cfg ~card:(fun _ -> 0) ~delta_pos:1 r)
  in
  check tstrings "delta steps (no merge)"
    [ "scan edge/2 match[0:=X,1:=Z]";
      "probe anc/2 key[0=Z] match[1:=Y]";
      "emit anc(X,Y)"
    ]
    nomerge.Plan.i_steps;
  (* cost SIP: make anc much smaller than edge, so the body is reordered
     to scan anc first and probe edge through the bound Z; edge is not
     the head predicate, so the pair fuses *)
  let cost_cfg = Plan.config ~sip:Plan.Cost () in
  let card p = if Pred.name p = "anc" then 5 else 100 in
  let cost = Plan.info (Plan.compile cost_cfg ~card r) in
  check Alcotest.(list int) "cost order" [ 1; 0 ] cost.Plan.i_order;
  check tstrings "cost steps"
    [ "merge anc/2 match[0:=Z,1:=Y] * edge/2 key[1=Z] match[0:=X]";
      "emit anc(X,Y)"
    ]
    cost.Plan.i_steps

(* --explain surfaces the same plans through the report *)
let test_report_plans () =
  let program = Alexander.Workloads.ancestor_chain 10 in
  let options = { (opts O.Seminaive) with O.explain = true } in
  let report = S.run_exn ~options program (atom "anc(0, X)") in
  check tbool "plans reported" true (report.S.plans <> []);
  check tbool "full and delta variants present" true
    (List.exists (fun i -> i.Plan.i_variant = "full") report.S.plans
    && List.exists
         (fun i -> String.length i.Plan.i_variant >= 5
                   && String.sub i.Plan.i_variant 0 5 = "delta")
         report.S.plans)

(* without --explain no plan description is built or collected *)
let test_report_plans_off () =
  let program = Alexander.Workloads.ancestor_chain 10 in
  List.iter
    (fun strategy ->
      let report = S.run_exn ~options:(opts strategy) program (atom "anc(0, X)") in
      check tbool
        (O.strategy_name strategy ^ ": no plans")
        true (report.S.plans = []))
    [ O.Seminaive; O.Alexander; O.Tabled ]

(* ------------------------------------------------------------------ *)
(* The Seki equivalence must hold under both SIPs *)

let test_equivalence_under_sips () =
  List.iter
    (fun (name, sips) ->
      List.iter
        (fun (wname, program, q) ->
          match E.check ~sips program (atom q) with
          | Error msg -> Alcotest.fail msg
          | Ok outcome ->
            check tbool
              (Printf.sprintf "equivalent (%s, %s)" wname name)
              true outcome.E.equivalent)
        [ ("anc chain", Alexander.Workloads.ancestor_chain 80, "anc(20, X)");
          ( "same gen",
            Alexander.Workloads.same_generation ~layers:5 ~width:6,
            "sg(0, X)" )
        ])
    [ ("ltr", Datalog_analysis.Sips.Ltr);
      ("cost", Datalog_analysis.Sips.Cost)
    ]

(* ------------------------------------------------------------------ *)
(* The cost SIP actually reduces join work on the bound-chain workload
   (the acceptance criterion of the plan compiler) *)

let test_cost_reduces_work () =
  let program = Alexander.Workloads.ancestor_chain 100 in
  let query = atom "anc(75, X)" in
  let ltr = S.run_exn ~options:(opts O.Seminaive) program query in
  let cost =
    S.run_exn
      ~options:(opts ~sips:Datalog_analysis.Sips.Cost O.Seminaive)
      program query
  in
  check tbool "same answers" true (ltr.S.answers = cost.S.answers);
  check tint "same firings" (firings ltr) (firings cost);
  check tbool "fewer probes" true
    (cost.S.counters.C.probes < ltr.S.counters.C.probes);
  check tbool "less scanned" true
    (cost.S.counters.C.scanned < ltr.S.counters.C.scanned)

(* ------------------------------------------------------------------ *)
(* Merge-join plans vs hash-join plans: byte-identical answers and fact
   counters; probes may only drop *)

let merge_invariants (r : S.report) =
  let c = r.S.counters in
  (r.S.answers, c.C.scanned, c.C.firings, c.C.facts_derived, c.C.iterations)

let prop_merge_parity arb tag count =
  List.map
    (fun strategy ->
      QCheck.Test.make
        ~name:
          (Printf.sprintf "merge = hash join (%s, %s)"
             (O.strategy_name strategy) tag)
        ~count arb
        (fun (program, query) ->
          match
            ( S.run ~options:(opts strategy) program query,
              S.run ~options:(opts ~merge:false strategy) program query )
          with
          | Ok m, Ok h ->
            merge_invariants m = merge_invariants h
            && m.S.counters.C.probes <= h.S.counters.C.probes
            && h.S.counters.C.merge_steps = 0
            && h.S.counters.C.gallops = 0
          | Error _, Error _ -> true
          | Ok _, Error _ | Error _, Ok _ -> false))
    strategies_under_test

let test_merge_reduces_probes () =
  let program = Alexander.Workloads.ancestor_chain 80 in
  let query = atom "anc(20, X)" in
  List.iter
    (fun strategy ->
      let m = S.run_exn ~options:(opts strategy) program query in
      let h = S.run_exn ~options:(opts ~merge:false strategy) program query in
      let name fmt =
        Printf.sprintf "%s (%s)" fmt (O.strategy_name strategy)
      in
      check tbool (name "same answers+facts") true
        (merge_invariants m = merge_invariants h);
      check tbool (name "merge steps ran") true
        (m.S.counters.C.merge_steps > 0);
      check tbool (name "gallops ran") true (m.S.counters.C.gallops > 0);
      check tbool (name "fewer probes") true
        (m.S.counters.C.probes < h.S.counters.C.probes))
    [ O.Seminaive; O.Magic; O.Supplementary; O.Supplementary_idb; O.Alexander ]

(* ------------------------------------------------------------------ *)
(* Unit: the merge-join kernel, pinned.  One application of a rule
   whose outer side is a shuffled relation and whose sorted side holds
   groups of one to four rows, probed with repeated keys (adjacent and
   not), absent keys, and keys below and above the sorted side's range;
   and the same outer side against an empty sorted side.  The counters
   were recorded with an earlier implementation of the search (closures
   over the registers), so a search that compares in another order, or
   gallops another number of times, shows here. *)

(* [facts] inserted in order, plus an empty relation for each of
   [empty]; one application of [rule_text] compiled with [merge]: its
   first step, its emissions (oldest first) and its counters. *)
let apply_once ~merge ?(empty = []) rule_text facts =
  let db = Database.create () in
  List.iter (fun f -> ignore (Database.add_atom db (atom f))) facts;
  List.iter (fun f -> ignore (Database.rel db (Atom.pred (atom f)))) empty;
  let r = rule rule_text in
  let plan =
    Plan.compile (Plan.config ~merge ()) ~card:(Database.cardinal db) r
  in
  let cnt = Counters.create () in
  let log = ref [] in
  Plan.run plan cnt
    ~rel_of:(fun _ pred -> Database.find db pred)
    ~neg:(fun pred t -> not (Database.mem db pred t))
    (fun _ t -> log := List.map Code.to_int (Array.to_list t) :: !log);
  ( List.hd (Plan.info plan).Plan.i_steps,
    List.rev !log,
    C.(cnt.probes, cnt.scanned, cnt.firings, cnt.merge_steps, cnt.gallops) )

let fact name args =
  Printf.sprintf "%s(%s)" name (String.concat ", " (List.map string_of_int args))

let test_merge_kernel_pinned () =
  (* one-column key: groups 10:1, 12:3, 15:2, 20..28 step 2:1, 30:4 *)
  let inner =
    List.map (fun (z, y) -> fact "r" [ z; y ])
      ([ (30, 1); (12, 1); (20, 1); (15, 1); (10, 1); (12, 2); (22, 1) ]
      @ [ (30, 2); (24, 1); (15, 2); (26, 1); (12, 3); (28, 1); (30, 3) ]
      @ [ (30, 4) ])
  in
  let probes_1 =
    [ 12; 12; 5; 30; 13; 12; 99; 10; 15; 15; 21; 1; 30; 20; 24; 40; 11; 28;
      12; 22; 26; 30; 0; 14 ]
  in
  let outer = List.mapi (fun x z -> fact "l" [ x; z ]) probes_1 in
  let one = "j(X, Y) :- l(X, Z), r(Z, Y)." in
  let expect_1 =
    List.concat_map
      (fun (x, z) ->
        (* a group lists its rows newest first *)
        List.rev
          (List.filter_map
             (fun (z', y) -> if z' = z then Some [ x; y ] else None)
             [ (10, 1); (12, 1); (12, 2); (12, 3); (15, 1); (15, 2);
               (20, 1); (22, 1); (24, 1); (26, 1); (28, 1); (30, 1); (30, 2);
               (30, 3); (30, 4) ]))
      (List.mapi (fun x z -> (x, z)) probes_1)
  in
  (* two-column key: (Z, W) groups (1,1):2, (1,3):1, (2,0):3, (2,2):1,
     (4,1):2 *)
  let inner_2 =
    List.map (fun (z, w, y) -> fact "r2" [ z; w; y ])
      [ (2, 0, 1); (1, 1, 1); (4, 1, 1); (2, 2, 1); (2, 0, 2); (1, 3, 1);
        (1, 1, 2); (4, 1, 2); (2, 0, 3) ]
  in
  let probes_2 =
    [ (2, 0); (1, 1); (1, 2); (0, 5); (9, 9); (2, 0); (2, 0); (1, 3); (2, 1);
      (4, 1); (4, 2); (1, 1); (2, 2); (3, 0) ]
  in
  let outer_2 = List.mapi (fun x (z, w) -> fact "l2" [ x; z; w ]) probes_2 in
  let two = "j2(X, Y) :- l2(X, Z, W), r2(Z, W, Y)." in
  let cases =
    [ ("one column", one, outer @ inner, [], (2, 58, 34, 1, 35));
      ("two columns", two, outer_2 @ inner_2, [], (2, 31, 17, 1, 20));
      ("empty inner", one, outer, [ "r(0, 0)" ], (2, 24, 0, 1, 24))
    ]
  in
  List.iter
    (fun (name, rule_text, facts, empty, counters) ->
      let step, merged, got = apply_once ~merge:true ~empty rule_text facts in
      let _, hashed, _ = apply_once ~merge:false ~empty rule_text facts in
      check tbool (name ^ ": a merge join") true
        (String.length step > 6 && String.sub step 0 6 = "merge ");
      check
        Alcotest.(list (list int))
        (name ^ ": the hash join's emissions, in its order")
        hashed merged;
      let probes, scanned, firings, steps, gallops = counters in
      check
        Alcotest.(list int)
        (name ^ ": probes, scanned, firings, merge steps, gallops")
        [ probes; scanned; firings; steps; gallops ]
        (let p, s, f, m, g = got in
         [ p; s; f; m; g ]))
    cases;
  let _, emitted, _ = apply_once ~merge:true one (outer @ inner) in
  check Alcotest.(list (list int)) "one column: the answers" expect_1 emitted

(* An application walks its outer side in place: over a frozen 400-row
   relation, a merge join (whose sorted side is already built) and a
   plain scan allocate a constant amount, far below the three words per
   row a copy of the outer side as a list takes. *)
let test_outer_side_not_copied () =
  let db = Database.create () in
  for x = 0 to 399 do
    ignore (Database.add_atom db (atom (fact "l" [ x; 1000 + (x * 7 mod 400) ])))
  done;
  for z = 0 to 99 do
    ignore (Database.add_atom db (atom (fact "r" [ 1000 + (4 * z) + 1; z ])))
  done;
  List.iter
    (fun (name, rule_text) ->
      let plan =
        Plan.compile (Plan.config ()) ~card:(Database.cardinal db)
          (rule rule_text)
      in
      let apply () =
        Plan.run plan (Counters.create ())
          ~rel_of:(fun _ pred -> Database.find db pred)
          ~neg:(fun pred t -> not (Database.mem db pred t))
          (fun _ _ -> ())
      in
      apply ();
      let words = Test_storage.minor_words_of apply in
      if words >= 400. then
        Alcotest.failf "%s: %.0f minor words over a 400-row outer side" name
          words)
    [ ("merge join", "j(X, Y) :- l(X, Z), r(Z, Y).");
      ("scan", "s(X) :- l(X, X).")
    ]

let suite =
  [ ( "plan",
      [ Alcotest.test_case "cmp parity" `Quick test_cmp_parity;
        Alcotest.test_case "unsafe message parity" `Quick test_unsafe_parity;
        Alcotest.test_case "delta parity" `Quick test_delta_parity;
        Alcotest.test_case "incremental parity" `Quick test_incremental_parity;
        Alcotest.test_case "golden explain" `Quick test_golden_explain;
        Alcotest.test_case "report plans" `Quick test_report_plans;
        Alcotest.test_case "no plans without explain" `Quick
          test_report_plans_off;
        Alcotest.test_case "equivalence under both sips" `Quick
          test_equivalence_under_sips;
        Alcotest.test_case "cost sip reduces work" `Quick
          test_cost_reduces_work;
        Alcotest.test_case "merge join reduces probes" `Quick
          test_merge_reduces_probes;
        Alcotest.test_case "merge kernel pinned" `Quick
          test_merge_kernel_pinned;
        Alcotest.test_case "outer side not copied" `Quick
          test_outer_side_not_copied
      ]
      @ List.map QCheck_alcotest.to_alcotest
          (prop_parity ~sip:Plan.Ltr Gen.arb_positive_program_query
             "positive" 40
          @ prop_parity ~sip:Plan.Cost Gen.arb_positive_program_query
              "positive" 25
          @ prop_parity ~sip:Plan.Ltr Gen.arb_stratified_program_query
              "stratified" 25
          @ prop_merge_parity Gen.arb_positive_program_query "positive" 40
          @ prop_merge_parity Gen.arb_stratified_program_query "stratified" 25
          @ prop_unstratified) )
  ]

(* Profiling: the per-rule / per-predicate rows reconcile exactly with
   the global counters for every strategy, the JSON schema is pinned,
   trace sinks receive round lines, and an unprofiled run stays on the
   inactive sentinel. *)

module O = Alexander.Options
module S = Alexander.Solve
module P = Datalog_engine.Profile
module C = Datalog_engine.Counters
module J = Datalog_engine.Json
module W = Alexander.Workloads

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let tstrings = Alcotest.(list string)

let atom = Datalog_parser.Parser.atom_of_string
let program = Datalog_parser.Parser.program_of_string

let run_exn ~options program query =
  match S.run ~options program query with
  | Ok report -> report
  | Error e -> Alcotest.fail (Alexander.Errors.message e)

let profiled ?(negation = O.Auto) ?trace strategy =
  { O.default with O.strategy; negation; profile = true; trace }

let sum f rows = List.fold_left (fun acc r -> acc + f r) 0 rows

(* -------------------------------------------------------------------- *)
(* Reconciliation: the profile rows are an exact decomposition of the
   global counters.  Rule firings happen only inside [with_rule] scopes
   and every probe / scan / derivation site records both, so the row sums
   must equal the totals — for every strategy.  (The one exception,
   nested negation under [Tabled], is exercised separately below.) *)

let reconcile name report =
  let p = report.S.profile in
  let c = report.S.counters in
  check tbool (name ^ ": profile active") true (P.is_active p);
  check tbool (name ^ ": has rule rows") true (P.rules p <> []);
  check tint
    (name ^ ": rule firings sum to the total")
    c.C.firings
    (sum (fun (r : P.rule_row) -> r.P.firings) (P.rules p));
  check tint
    (name ^ ": rule derivations sum to the total")
    c.C.facts_derived
    (sum (fun (r : P.rule_row) -> r.P.derived) (P.rules p));
  check tint
    (name ^ ": predicate probes sum to the total")
    c.C.probes
    (sum (fun (r : P.pred_row) -> r.P.p_probes) (P.preds p));
  check tint
    (name ^ ": predicate scans sum to the total")
    c.C.scanned
    (sum (fun (r : P.pred_row) -> r.P.p_scanned) (P.preds p));
  check tint
    (name ^ ": predicate derivations sum to the total")
    c.C.facts_derived
    (sum (fun (r : P.pred_row) -> r.P.p_derived) (P.preds p));
  check tint
    (name ^ ": predicate merge steps sum to the total")
    c.C.merge_steps
    (sum (fun (r : P.pred_row) -> r.P.p_merge_steps) (P.preds p));
  check tint
    (name ^ ": predicate gallops sum to the total")
    c.C.gallops
    (sum (fun (r : P.pred_row) -> r.P.p_gallops) (P.preds p))

let test_rows_reconcile_every_strategy () =
  let program = W.same_generation ~layers:4 ~width:5 in
  let query = atom "sg(0, X)" in
  List.iter
    (fun strategy ->
      let report = run_exn ~options:(profiled strategy) program query in
      reconcile (O.strategy_name strategy) report)
    O.all_strategies

let test_rows_reconcile_negation_modes () =
  (* a stratified program with negation, under each fixpoint family *)
  let p =
    program
      "reach(X) :- source(X).\n\
       reach(Y) :- reach(X), edge(X, Y).\n\
       dead(X) :- node(X), not reach(X).\n\
       node(0). node(1). node(2). node(3).\n\
       source(0). edge(0, 1). edge(1, 2)."
  in
  let query = atom "dead(X)" in
  List.iter
    (fun negation ->
      let options = profiled ~negation O.Seminaive in
      let report = run_exn ~options p query in
      reconcile (O.negation_name negation) report)
    [ O.Auto; O.Conditional; O.Well_founded ]

(* -------------------------------------------------------------------- *)
(* Round and stratum rows decompose the derivation totals too *)

let test_round_rows_seminaive () =
  let report =
    run_exn
      ~options:(profiled O.Seminaive)
      (W.ancestor_chain 30) (atom "anc(0, X)")
  in
  let p = report.S.profile in
  check tbool "rounds recorded" true (P.rounds p <> []);
  check tint "round derivations sum to the total"
    report.S.counters.C.facts_derived
    (sum (fun (r : P.round_row) -> r.P.round_derived) (P.rounds p));
  let rounds = List.map (fun (r : P.round_row) -> r.P.round) (P.rounds p) in
  check tbool "rounds numbered 1.." true
    (rounds = List.init (List.length rounds) (fun i -> i + 1))

let test_stratum_rows_stratified () =
  let p =
    program
      "reach(X) :- source(X).\n\
       reach(Y) :- reach(X), edge(X, Y).\n\
       dead(X) :- node(X), not reach(X).\n\
       node(0). node(1). node(2).\n\
       source(0). edge(0, 1)."
  in
  let report = run_exn ~options:(profiled O.Seminaive) p (atom "dead(X)") in
  let prof = report.S.profile in
  check tbool "at least two strata" true (List.length (P.strata prof) >= 2);
  check tint "stratum derivations sum to the total"
    report.S.counters.C.facts_derived
    (sum (fun (s : P.stratum_row) -> s.P.s_derived) (P.strata prof));
  check tint "stratum rounds sum to the round count"
    (List.length (P.rounds prof))
    (sum (fun (s : P.stratum_row) -> s.P.s_rounds) (P.strata prof))

(* -------------------------------------------------------------------- *)
(* The JSON schema is pinned: future PRs may add keys only knowingly *)

let test_report_json_schema () =
  let report =
    run_exn
      ~options:(profiled O.Alexander)
      (W.ancestor_chain 10) (atom "anc(0, X)")
  in
  let json = S.report_json ~query:(atom "anc(0, X)") report in
  check tstrings "report keys"
    [ "schema_version"; "query"; "strategy"; "sips"; "negation"; "subsume";
      "evaluator";
      "status"; "exhausted_reason"; "answers"; "undefined"; "wall_time_s";
      "minor_words"; "rewritten"; "plan"; "totals"; "profile"
    ]
    (J.keys json);
  (match J.member "plan" json with
  | Some plan -> (
    check tstrings "plan keys" [ "sip"; "rules" ] (J.keys plan);
    match J.member "rules" plan with
    | Some (J.List (first :: _)) ->
      check tstrings "plan rule keys"
        [ "rule"; "variant"; "order"; "steps" ]
        (J.keys first)
    | _ -> Alcotest.fail "no plan rules")
  | None -> Alcotest.fail "no plan");
  (match J.member "totals" json with
  | Some totals ->
    check tstrings "totals keys"
      [ "facts_derived"; "firings"; "probes"; "scanned"; "iterations";
        "merge_steps"; "gallops"; "subsumed"
      ]
      (J.keys totals)
  | None -> Alcotest.fail "no totals");
  match J.member "profile" json with
  | None -> Alcotest.fail "no profile"
  | Some profile -> (
    check tstrings "profile keys"
      [ "enabled"; "rules"; "predicates"; "strata"; "rounds" ]
      (J.keys profile);
    match J.member "rules" profile with
    | Some (J.List (first :: _)) ->
      check tstrings "rule row keys"
        [ "rule"; "evals"; "firings"; "probes"; "scanned"; "derived";
          "merge_steps"; "gallops"; "subsumed"; "time_s"
        ]
        (J.keys first)
    | _ -> Alcotest.fail "no rule rows")

let test_schema_version_is_8 () =
  let report =
    run_exn ~options:O.default (W.ancestor_chain 5) (atom "anc(0, X)")
  in
  let json = S.report_json ~query:(atom "anc(0, X)") report in
  check tbool "schema_version 8" true
    (J.member "schema_version" json = Some (J.Int 8))

(* -------------------------------------------------------------------- *)
(* Trace sinks *)

let test_trace_lines () =
  let lines = ref [] in
  let trace line = lines := line :: !lines in
  let _ =
    run_exn
      ~options:(profiled ~trace O.Seminaive)
      (W.ancestor_chain 20) (atom "anc(0, X)")
  in
  let lines = List.rev !lines in
  check tbool "trace lines emitted" true (lines <> []);
  let has sub =
    List.exists
      (fun l ->
        let n = String.length sub and m = String.length l in
        let rec go i = i + n <= m && (String.sub l i n = sub || go (i + 1)) in
        go 0)
      lines
  in
  check tbool "round lines" true (has "round");
  check tbool "fact counts" true (has "fact(s)")

let test_trace_implies_profile () =
  (* a trace sink alone activates collection, even with [profile = false] *)
  let options =
    { O.default with O.strategy = O.Seminaive; trace = Some ignore }
  in
  let report = run_exn ~options (W.ancestor_chain 5) (atom "anc(0, X)") in
  check tbool "profile active under trace" true
    (P.is_active report.S.profile)

(* -------------------------------------------------------------------- *)
(* The default is the inactive sentinel: no rows, no overhead *)

let test_default_is_inactive () =
  let report =
    run_exn ~options:O.default (W.ancestor_chain 10) (atom "anc(0, X)")
  in
  let p = report.S.profile in
  check tbool "inactive" false (P.is_active p);
  check tbool "no rule rows" true (P.rules p = []);
  check tbool "no pred rows" true (P.preds p = []);
  check tbool "no round rows" true (P.rounds p = []);
  check tbool "no stratum rows" true (P.strata p = []);
  check tbool "json says disabled" true
    (J.member "enabled" (P.to_json p) = Some (J.Bool false))

(* -------------------------------------------------------------------- *)
(* Exceptional exit still records the work done so far *)

let test_with_rule_records_on_exception () =
  let p = P.create () in
  let cnt = C.create () in
  let rule = Datalog_parser.Parser.rule_of_string "p(X) :- q(X)." in
  (try
     P.with_rule p cnt rule (fun () ->
         cnt.C.firings <- cnt.C.firings + 3;
         failwith "abort")
   with Failure _ -> ());
  match P.rules p with
  | [ row ] ->
    check tint "eval recorded" 1 row.P.evals;
    check tint "partial firings attributed" 3 row.P.firings
  | rows -> Alcotest.failf "expected one row, got %d" (List.length rows)

let suite =
  [ ( "profile",
      [ Alcotest.test_case "rows reconcile (every strategy)" `Slow
          test_rows_reconcile_every_strategy;
        Alcotest.test_case "rows reconcile (negation modes)" `Quick
          test_rows_reconcile_negation_modes;
        Alcotest.test_case "round rows (seminaive)" `Quick
          test_round_rows_seminaive;
        Alcotest.test_case "stratum rows (stratified)" `Quick
          test_stratum_rows_stratified;
        Alcotest.test_case "report_json schema pinned" `Quick
          test_report_json_schema;
        Alcotest.test_case "schema_version is 8" `Quick
          test_schema_version_is_8;
        Alcotest.test_case "trace lines" `Quick test_trace_lines;
        Alcotest.test_case "trace implies profiling" `Quick
          test_trace_implies_profile;
        Alcotest.test_case "default inactive" `Quick test_default_is_inactive;
        Alcotest.test_case "with_rule records on exception" `Quick
          test_with_rule_records_on_exception
      ] )
  ]

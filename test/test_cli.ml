(* End-to-end tests of the command-line binary: every subcommand is run
   against the shipped sample programs and its output inspected. *)

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let cli = "../bin/alexander_cli.exe"
let samples = "../examples/programs"

let run_cli args =
  let cmd = Filename.quote_command cli args in
  let ic = Unix.open_process_in (cmd ^ " 2>&1") in
  let output = In_channel.input_all ic in
  let status = Unix.close_process_in ic in
  let code = match status with Unix.WEXITED n -> n | _ -> -1 in
  (code, output)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let sample name = Filename.concat samples name

let test_run_file_queries () =
  let code, out = run_cli [ "run"; sample "ancestor.dl" ] in
  check tint "exit 0" 0 code;
  check tbool "answers printed" true (contains ~sub:"anc(ann, fay)" out);
  check tbool "second query too" true (contains ~sub:"anc(cal, fay)" out)

let test_run_explicit_query_and_stats () =
  let code, out =
    run_cli
      [ "run"; sample "ancestor.dl"; "-q"; "anc(bob, X)"; "-s"; "magic";
        "--stats" ]
  in
  check tint "exit 0" 0 code;
  check tbool "strategy echoed" true (contains ~sub:"strategy:  magic" out);
  check tbool "counters shown" true (contains ~sub:"facts=" out)

let test_run_every_strategy () =
  List.iter
    (fun s ->
      let code, out =
        run_cli [ "run"; sample "ancestor.dl"; "-q"; "anc(ann, X)"; "-s"; s ]
      in
      check tint (s ^ " exits 0") 0 code;
      check tbool (s ^ " finds fay") true (contains ~sub:"anc(ann, fay)" out))
    [ "naive"; "seminaive"; "magic"; "supplementary"; "supplementary-idb";
      "alexander"; "tabled" ]

let test_analyze () =
  let code, out = run_cli [ "analyze"; sample "flights.dl" ] in
  check tint "exit 0" 0 code;
  check tbool "stratified report" true (contains ~sub:"stratified: yes" out);
  let code2, out2 = run_cli [ "analyze"; sample "win_move.dl" ] in
  check tint "exit 0 for win-move" 0 code2;
  check tbool "not stratified" true (contains ~sub:"stratified: no" out2);
  check tbool "loose check reported" true
    (contains ~sub:"loosely stratified: no" out2)

let test_analyze_dot () =
  let code, out = run_cli [ "analyze"; sample "flights.dl"; "--dot" ] in
  check tint "exit 0" 0 code;
  check tbool "graphviz" true (contains ~sub:"digraph dependencies" out);
  check tbool "negative edge styled" true (contains ~sub:"style=dashed" out)

let test_rewrite_outputs_rules () =
  let code, out =
    run_cli
      [ "rewrite"; sample "same_generation.dl"; "-q"; "sg(a, X)"; "-s";
        "alexander" ]
  in
  check tint "exit 0" 0 code;
  check tbool "call predicate" true (contains ~sub:"call_sg__bf" out);
  check tbool "continuation" true (contains ~sub:"cont_" out);
  check tbool "seed" true (contains ~sub:"call_sg__bf(a)." out)

let test_equiv_reports_equal () =
  let code, out =
    run_cli [ "equiv"; sample "ancestor.dl"; "-q"; "anc(ann, X)" ]
  in
  check tint "exit 0 = equivalent" 0 code;
  check tbool "summary line" true (contains ~sub:"equivalent: true" out)

let test_explain_prints_tree () =
  let code, out =
    run_cli [ "explain"; sample "ancestor.dl"; "-q"; "anc(ann, eve)" ]
  in
  check tint "exit 0" 0 code;
  check tbool "rule cited" true (contains ~sub:"[by anc(X, Y)" out);
  check tbool "leaf cited" true (contains ~sub:"[fact]" out);
  (* underivable goal: non-zero exit *)
  let code2, out2 =
    run_cli [ "explain"; sample "ancestor.dl"; "-q"; "anc(fay, ann)" ]
  in
  check tint "exit 1" 1 code2;
  check tbool "says not derivable" true (contains ~sub:"not derivable" out2)

let test_wellfounded_flag () =
  let code, out =
    run_cli
      [ "run"; sample "win_move.dl"; "-q"; "win(X)"; "-s"; "seminaive";
        "--negation"; "wellfounded" ]
  in
  check tint "exit 0" 0 code;
  check tbool "true answers" true (contains ~sub:"win(a)" out);
  check tbool "draws reported" true (contains ~sub:"undefined: win(g)" out)

let test_bad_query_reports_error () =
  let code, _ = run_cli [ "run"; sample "ancestor.dl"; "-q"; "anc(" ] in
  check tbool "non-zero exit" true (code <> 0)

(* an integer literal outside the int range is a parse error (exit 1)
   in a file and in a query, never an uncaught exception *)
let test_int_literal_range () =
  let path = Filename.temp_file "alexint" ".dl" in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "p(99999999999999999999).\np(-4611686018427387904).\n");
  let code, out = run_cli [ "run"; path; "-q"; "p(X)" ] in
  check tint "exit 1 on a file literal" 1 code;
  check tbool "named and placed" true
    (contains ~sub:"line 1, column 3: integer literal out of range" out);
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "p(-4611686018427387904).\n");
  let code, out = run_cli [ "run"; path; "-q"; "p(99999999999999999999)" ] in
  check tint "exit 1 on a query literal" 1 code;
  check tbool "query literal named" true
    (contains ~sub:"integer literal out of range" out);
  let code, out = run_cli [ "run"; path; "-q"; "p(X)" ] in
  check tint "min_int parses" 0 code;
  check tbool "min_int answered" true
    (contains ~sub:"p(-4611686018427387904)" out);
  Sys.remove path

let test_fact_cap_exit_code () =
  let code, out =
    run_cli [ "run"; sample "explosive.dl"; "--max-facts"; "100" ]
  in
  check tint "exit 4 on the fact cap" 4 code;
  check tbool "incomplete banner" true
    (contains ~sub:"incomplete (max-facts)" out);
  check tbool "partial answer count" true
    (contains ~sub:"partial answer(s)" out)

let test_timeout_exit_code () =
  let code, out =
    run_cli [ "run"; sample "explosive.dl"; "--timeout"; "0.2" ]
  in
  check tint "exit 3 on timeout" 3 code;
  check tbool "incomplete banner" true
    (contains ~sub:"incomplete (timeout)" out)

let test_limits_unbinding_by_default () =
  (* generous limits on a small program change nothing *)
  let code, out =
    run_cli
      [ "run"; sample "ancestor.dl"; "-q"; "anc(ann, X)"; "--timeout"; "60";
        "--max-facts"; "1000000" ]
  in
  check tint "exit 0" 0 code;
  check tbool "complete answers" true (contains ~sub:"anc(ann, fay)" out);
  check tbool "no incomplete banner" false (contains ~sub:"incomplete" out)

let test_stats_json_file_and_trace () =
  let out = Filename.temp_file "alexander_stats" ".json" in
  let code, output =
    run_cli
      [ "run"; sample "ancestor.dl"; "-q"; "anc(ann, X)"; "--stats-json"; out;
        "--trace" ]
  in
  check tint "exit 0" 0 code;
  check tbool "trace round lines on stderr" true
    (contains ~sub:"% trace: round" output);
  let json = In_channel.with_open_text out In_channel.input_all in
  Sys.remove out;
  check tbool "schema version" true
    (contains ~sub:"\"schema_version\": 8" json);
  check tbool "profile enabled" true (contains ~sub:"\"enabled\": true" json);
  check tbool "per-rule rows" true (contains ~sub:"\"rule\":" json);
  check tbool "plan block" true (contains ~sub:"\"steps\":" json);
  check tbool "query echoed" true (contains ~sub:"anc(ann, X)" json)

let test_stats_json_stdout () =
  let code, out =
    run_cli
      [ "run"; sample "ancestor.dl"; "-q"; "anc(bob, X)"; "-s"; "seminaive";
        "--stats-json"; "-" ]
  in
  check tint "exit 0" 0 code;
  check tbool "runs array printed" true (contains ~sub:"\"runs\":" out);
  check tbool "strategy recorded" true
    (contains ~sub:"\"strategy\": \"seminaive\"" out);
  check tbool "totals present" true (contains ~sub:"\"facts_derived\":" out)

let test_explain_flag () =
  let code, out =
    run_cli
      [ "run"; sample "ancestor.dl"; "-q"; "anc(ann, X)"; "--explain" ]
  in
  check tint "exit 0" 0 code;
  check tbool "plan banner" true (contains ~sub:"% plan " out);
  check tbool "emit step shown" true (contains ~sub:"emit " out);
  check tbool "answers still printed" true (contains ~sub:"anc(ann, fay)" out)

let test_stats_prints_profile () =
  let code, out =
    run_cli [ "run"; sample "ancestor.dl"; "-q"; "anc(ann, X)"; "--stats" ]
  in
  check tint "exit 0" 0 code;
  check tbool "per-rule profile section" true
    (contains ~sub:"per-rule profile" out);
  check tbool "gc line" true
    (contains ~sub:"% gc: minor_words=" out
    && contains ~sub:" major_collections=" out
    && contains ~sub:" top_heap_words=" out)

(* [explain] on a program written to a temporary file *)
let explain_program text goal =
  let file = Filename.temp_file "alexander_explain" ".dl" in
  Out_channel.with_open_text file (fun oc -> output_string oc text);
  let result = run_cli [ "explain"; file; "-q"; goal ] in
  Sys.remove file;
  result

(* explain validates the program as run does: an unlimited variable is
   reported with run's message and exit 1, not an uncaught exception
   (negative literal) or a "not derivable" verdict (head) *)
let test_explain_rejects_unsafe_programs () =
  List.iter
    (fun (text, goal, culprit) ->
      let code, out = explain_program text goal in
      check tint (culprit ^ ": exit 1") 1 code;
      check tbool (culprit ^ ": not limited") true
        (contains ~sub:"variable Y in " out
        && contains ~sub:culprit out
        && contains ~sub:"is not limited" out);
      check tbool (culprit ^ ": no verdict") false
        (contains ~sub:"not derivable" out))
    [ ("p(X) :- q(X), not r(Y). q(1).", "p(1)", "a negative literal");
      ("p(X, Y) :- q(X). q(1).", "p(1, 2)", "the head") ]

(* a negation written before the literal that binds its variable: the
   fixpoint and tabled strategies reorder the body instead of dying on
   an unbound negative literal *)
let test_run_negation_before_binding () =
  let file = Filename.temp_file "alexander_neg_first" ".dl" in
  Out_channel.with_open_text file (fun oc ->
      output_string oc "p(X) :- not r(X), q(X).\nq(1).\n");
  List.iter
    (fun s ->
      let code, out = run_cli [ "run"; file; "-q"; "p(X)"; "-s"; s ] in
      check tint (s ^ " exits 0") 0 code;
      check Alcotest.string (s ^ " answers p(1)") "?- p(X).\np(1)\n" out)
    [ "naive"; "seminaive"; "tabled" ];
  Sys.remove file

(* run answers win(1) and win(3) on this game (conditional fixpoint), so
   a stratified-replay proof of win(2) citing "not win(3)" would be
   unsound: explain refuses the program *)
let test_explain_rejects_unstratified_programs () =
  let code, out =
    explain_program
      "win(X) :- move(X, Y), not win(Y).\n\
       move(1, 2). move(2, 3). move(3, 1). move(3, 4)."
      "win(2)"
  in
  check tint "exit 1" 1 code;
  check tbool "not stratified" true
    (contains ~sub:"program is not stratified: win/1" out);
  check tbool "no proof printed" false (contains ~sub:"[absent]" out)

(* bench/main.exe refuses a bad argument with exit 2 before running
   anything, rather than regenerating zero experiments and exiting 0 *)
let bench = "../bench/main.exe"

let run_bench args =
  let cmd = Filename.quote_command bench args in
  let ic = Unix.open_process_in (cmd ^ " 2>&1") in
  let output = In_channel.input_all ic in
  let status = Unix.close_process_in ic in
  let code = match status with Unix.WEXITED n -> n | _ -> -1 in
  (code, output)

let test_bench_rejects_checkpoint_every_zero () =
  let code, out = run_bench [ "--checkpoint-every"; "0"; "--no-bechamel" ] in
  check tint "exit 2" 2 code;
  check tbool "names the flag" true (contains ~sub:"--checkpoint-every" out);
  check tbool "runs nothing" false (contains ~sub:"regenerating" out)

let test_bench_rejects_unknown_experiment () =
  let code, out = run_bench [ "T99"; "--no-bechamel" ] in
  check tint "exit 2" 2 code;
  check tbool "names the experiment" true (contains ~sub:"\"T99\"" out);
  check tbool "runs nothing" false (contains ~sub:"regenerating" out)

let suite =
  [ ( "cli",
      [ Alcotest.test_case "run file queries" `Quick test_run_file_queries;
        Alcotest.test_case "run with stats" `Quick test_run_explicit_query_and_stats;
        Alcotest.test_case "every strategy" `Quick test_run_every_strategy;
        Alcotest.test_case "analyze" `Quick test_analyze;
        Alcotest.test_case "analyze --dot" `Quick test_analyze_dot;
        Alcotest.test_case "rewrite" `Quick test_rewrite_outputs_rules;
        Alcotest.test_case "equiv" `Quick test_equiv_reports_equal;
        Alcotest.test_case "explain" `Quick test_explain_prints_tree;
        Alcotest.test_case "explain rejects unsafe programs" `Quick
          test_explain_rejects_unsafe_programs;
        Alcotest.test_case "negation before its binding literal" `Quick
          test_run_negation_before_binding;
        Alcotest.test_case "explain rejects unstratified programs" `Quick
          test_explain_rejects_unstratified_programs;
        Alcotest.test_case "wellfounded flag" `Quick test_wellfounded_flag;
        Alcotest.test_case "bad query" `Quick test_bad_query_reports_error;
        Alcotest.test_case "integer literal range" `Quick test_int_literal_range;
        Alcotest.test_case "fact-cap exit code" `Quick test_fact_cap_exit_code;
        Alcotest.test_case "timeout exit code" `Quick test_timeout_exit_code;
        Alcotest.test_case "non-binding limits" `Quick
          test_limits_unbinding_by_default;
        Alcotest.test_case "stats-json file + trace" `Quick
          test_stats_json_file_and_trace;
        Alcotest.test_case "stats-json stdout" `Quick test_stats_json_stdout;
        Alcotest.test_case "explain flag" `Quick test_explain_flag;
        Alcotest.test_case "stats prints profile" `Quick
          test_stats_prints_profile;
        Alcotest.test_case "bench rejects --checkpoint-every 0" `Quick
          test_bench_rejects_checkpoint_every_zero;
        Alcotest.test_case "bench rejects an unknown experiment" `Quick
          test_bench_rejects_unknown_experiment
      ] )
  ]

(* Test runner: every module contributes a list of alcotest suites. *)

let () =
  Alcotest.run "alexander"
    (Test_ast.suite @ Test_code.suite @ Test_parser.suite @ Test_storage.suite
   @ Test_analysis.suite @ Test_engine.suite @ Test_rewrite.suite
   @ Test_equivalence.suite @ Test_core.suite @ Test_tabled.suite
   @ Test_provenance.suite @ Test_formula.suite @ Test_preprocess.suite
   @ Test_incremental.suite @ Test_io.suite @ Test_multiquery.suite
   @ Test_edge_cases.suite @ Test_limits.suite @ Test_profile.suite
   @ Test_snapshot.suite @ Test_checkpoint.suite @ Test_faults.suite
   @ Test_wal.suite
   @ Test_subsume.suite
   @ Test_plan.suite @ Test_determinism.suite @ Test_cli.suite @ Test_misc.suite
   @ Test_server.suite @ Test_server_drill.suite)

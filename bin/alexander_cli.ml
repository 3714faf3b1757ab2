(* alexander_cli: evaluate Datalog programs from the command line.

   Usage examples:
     alexander_cli run examples.dl                       # run its ?- queries
     alexander_cli run examples.dl -q 'anc(0, X)'        # explicit query
     alexander_cli run examples.dl -q '...' -s magic --stats
     alexander_cli analyze examples.dl                   # stratification etc.
     alexander_cli rewrite examples.dl -q '...' -s alexander   # show rules
     alexander_cli equiv examples.dl -q '...'            # Seki check
*)

open Datalog_ast
open Cmdliner
module O = Alexander.Options
module S = Alexander.Solve

let read_program path =
  match Datalog_parser.Parser.parse_file path with
  | Ok parsed -> Ok parsed
  | Error msg -> Error msg

let strategy_conv =
  let parse s =
    match O.strategy_of_string s with
    | Some v -> Ok v
    | None -> Error (`Msg (Printf.sprintf "unknown strategy %S" s))
  in
  Arg.conv (parse, fun ppf s -> Format.pp_print_string ppf (O.strategy_name s))

let negation_conv =
  let parse s =
    match O.negation_of_string s with
    | Some v -> Ok v
    | None -> Error (`Msg (Printf.sprintf "unknown negation mode %S" s))
  in
  Arg.conv (parse, fun ppf n -> Format.pp_print_string ppf (O.negation_name n))

let sips_conv =
  let parse s =
    match Datalog_analysis.Sips.strategy_of_string s with
    | Some v -> Ok v
    | None -> Error (`Msg (Printf.sprintf "unknown SIP strategy %S" s))
  in
  Arg.conv
    ( parse,
      fun ppf s ->
        Format.pp_print_string ppf (Datalog_analysis.Sips.strategy_name s) )

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Datalog program (.dl)")

let query_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "q"; "query" ] ~docv:"GOAL" ~doc:"Query goal, e.g. 'anc(0, X)'")

let strategy_arg =
  Arg.(
    value
    & opt strategy_conv O.default.O.strategy
    & info [ "s"; "strategy" ] ~docv:"STRATEGY"
        ~doc:
          "naive | seminaive | magic | supplementary | supplementary-idb | \
           alexander | tabled")

let negation_arg =
  Arg.(
    value
    & opt negation_conv O.default.O.negation
    & info [ "negation" ] ~docv:"MODE"
        ~doc:"auto | stratified | conditional | wellfounded")

let sips_arg =
  Arg.(
    value
    & opt sips_conv O.default.O.sips
    & info [ "sips" ] ~docv:"SIP"
        ~doc:
          "ltr | cost.  'ltr' keeps each rule body as written, with every \
           negation and comparison moved to the first point where its \
           variables are bound; 'cost' picks next the literal sharing the \
           most bound variables, breaking ties by constant arguments, then \
           by estimated relation cardinality (smallest first).  The \
           rewritings, the compiled join plans and tabled calls (from the \
           call's bound arguments) all use this order")

let stats_arg =
  Arg.(value & flag & info [ "stats" ] ~doc:"Print evaluation statistics")

let explain_arg =
  Arg.(
    value
    & flag
    & info [ "explain" ]
        ~doc:
          "Print the compiled join plan of every rule the evaluation used \
           (literal order, index probes, register operations); also \
           included in --stats-json output")

let no_merge_arg =
  Arg.(
    value
    & flag
    & info [ "no-merge" ]
        ~doc:
          "Disable galloping merge-join fusion in compiled plans; every \
           join runs as a hash-index probe (same answers and fact \
           counters, more probes)")

let no_subsume_arg =
  Arg.(
    value
    & flag
    & info [ "no-subsume" ]
        ~doc:
          "Disable the adornment-lattice subsumption filter on \
           magic-family rewrites (ablation; same answers, more derived \
           facts and probes)")

let stats_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "stats-json" ] ~docv:"FILE"
        ~doc:
          "Write per-query evaluation statistics (per-rule and per-predicate \
           profile, timings, totals) as JSON to FILE ('-' for stdout)")

let trace_arg =
  Arg.(
    value
    & flag
    & info [ "trace" ]
        ~doc:
          "Log each fixpoint round (facts derived, stratum, time) to stderr \
           while evaluating")

let timeout_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "timeout" ] ~docv:"SECONDS"
        ~doc:
          "Stop evaluation after this much wall-clock time and report the \
           partial answers (exit code 3)")

let max_facts_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-facts" ] ~docv:"N"
        ~doc:
          "Stop evaluation after deriving N facts and report the partial \
           answers (exit code 4)")

let max_iterations_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-iterations" ] ~docv:"N"
        ~doc:
          "Stop evaluation after N fixpoint iterations and report the \
           partial answers (exit code 5)")

let max_tuples_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-tuples" ] ~docv:"N"
        ~doc:
          "Stop evaluation when any single relation exceeds N tuples and \
           report the partial answers (exit code 6)")

(* The term yields a constructor, not a Limits.t, so `run` can attach a
   signal-driven cancellation hook to the same limit set. *)
let limits_term =
  let make timeout_s max_facts max_iterations max_tuples :
      ?cancelled:(unit -> bool) -> unit -> Datalog_engine.Limits.t =
   fun ?cancelled () ->
    Datalog_engine.Limits.make ?timeout_s ?max_facts ?max_iterations
      ?max_tuples ?cancelled ()
  in
  Term.(
    const make $ timeout_arg $ max_facts_arg $ max_iterations_arg
    $ max_tuples_arg)

(* Graceful interrupt: with --checkpoint active, SIGINT/SIGTERM stop the
   evaluation through the governor's cancellation hook instead of
   killing the process — the engine exits its fixpoint cleanly, the last
   round's checkpoint is already on disk (fsynced), and the
   run reports the partial answers with the cancellation exit code, so
   `--resume` picks up exactly where the interrupt landed.  A second
   SIGINT aborts immediately. *)
let install_interrupt () =
  let interrupted = ref false in
  let on_signal _ = if !interrupted then exit 130 else interrupted := true in
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  fun () -> !interrupted

let checkpoint_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint" ] ~docv:"FILE"
        ~doc:
          "Save a resumable checkpoint of the evaluation to FILE.  The \
           first save installs a full image atomically; each later save \
           appends and fsyncs one frame holding what the evaluation added \
           since, so FILE always ends with the last complete save (a torn \
           final frame is ignored on resume).  A run that exhausts its \
           budget leaves a checkpoint behind that --resume continues")

let checkpoint_every_arg =
  Arg.(
    value
    & opt int 1
    & info [ "checkpoint-every" ] ~docv:"N"
        ~doc:
          "With --checkpoint, save every N fixpoint rounds (or tabled \
           agenda steps); default 1")

let resume_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "resume" ] ~docv:"FILE"
        ~doc:
          "Resume an interrupted evaluation from a checkpoint written by \
           --checkpoint.  Requires the same program, strategy and (single) \
           query the checkpoint was taken under")

let snapshot_mode_arg =
  Arg.(
    value
    & vflag Datalog_storage.Snapshot.Strict
        [ ( Datalog_storage.Snapshot.Strict,
            info [ "snapshot-strict" ]
              ~doc:
                "Fail (exit code 8) when a checkpoint or snapshot is \
                 corrupt (default)" );
          ( Datalog_storage.Snapshot.Lenient,
            info [ "snapshot-lenient" ]
              ~doc:
                "Degrade on corruption where resuming stays sound: skip \
                 corrupt tables, discard a corrupt delta, and fall back to \
                 evaluating from scratch when the checkpoint is unusable" )
        ])

let data_arg =
  Arg.(
    value
    & opt (some dir) None
    & info [ "data" ] ~docv:"DIR"
        ~doc:"Directory of .csv/.tsv files loaded as extensional facts")

let with_data data program =
  match data with
  | None -> Ok program
  | Some dir ->
    Result.map
      (fun atoms ->
        Datalog_ast.Program.make
          ~facts:(Datalog_ast.Program.facts program @ atoms)
          (Datalog_ast.Program.rules program))
      (Datalog_storage.Io.load_directory dir)

let parse_query q =
  match Datalog_parser.Parser.atom_of_string q with
  | atom -> Ok atom
  | exception Datalog_parser.Parser.Parse_error (msg, pos) ->
    Error
      (Printf.sprintf "bad query at column %d: %s" pos.Datalog_parser.Lexer.col
         msg)

let print_plans report =
  List.iter
    (fun i ->
      Format.printf "%% plan %s [%s, sip=%s]@." i.Datalog_engine.Plan.i_rule
        i.Datalog_engine.Plan.i_variant i.Datalog_engine.Plan.i_sip;
      List.iter
        (fun s -> Format.printf "%%   %s@." s)
        i.Datalog_engine.Plan.i_steps)
    report.S.plans

(* Answer lines are rendered from the codes into a buffer that goes to
   the buffered stdout channel a few kilobytes at a time; the report
   flushes once at the end: a flush per line would cost one write per
   answer, and a channel write per line costs a lock. *)
let answer_chunk = 4096

let print_report query report ~stats =
  let open S in
  (match report.answers with
  | [] -> print_endline "no."
  | answers ->
    let buf = Buffer.create answer_chunk in
    let pred = Atom.pred query in
    List.iter
      (fun t ->
        Datalog_storage.Tuple.add_atom buf pred t;
        Buffer.add_char buf '\n';
        if Buffer.length buf >= answer_chunk then begin
          Buffer.output_buffer stdout buf;
          Buffer.clear buf
        end)
      answers;
    Buffer.output_buffer stdout buf);
  List.iter
    (fun a -> Format.printf "undefined: %a@." Atom.pp a)
    report.undefined;
  (match report.status with
  | Datalog_engine.Limits.Complete -> ()
  | Datalog_engine.Limits.Exhausted reason ->
    Format.printf "%% incomplete (%s): %d partial answer(s)@."
      (Datalog_engine.Limits.reason_name reason)
      (List.length report.answers));
  if stats then begin
    Format.printf "%% strategy:  %s@." (O.strategy_name report.options.O.strategy);
    Format.printf "%% evaluator: %s@." report.evaluator;
    Format.printf "%% answers:   %d@." (List.length report.answers);
    Format.printf "%% counters:  %a@." Datalog_engine.Counters.pp report.counters;
    (match report.rewritten with
    | Some rw ->
      Format.printf "%% rewritten: %d rules, %d predicates@."
        (Datalog_rewrite.Rewritten.num_rules rw)
        (Datalog_rewrite.Rewritten.num_preds rw)
    | None -> ());
    if Datalog_engine.Profile.is_active report.profile then begin
      Format.printf "%% per-rule profile:@.";
      Format.printf "%a@." Datalog_engine.Profile.pp report.profile
    end;
    (* heap figures are the process's, at exit of this goal *)
    let gc = Gc.quick_stat () in
    Format.printf
      "%% gc: minor_words=%.0f major_collections=%d top_heap_words=%d@."
      report.minor_words gc.Gc.major_collections gc.Gc.top_heap_words;
    Format.printf "%% wall time: %.6f s@." report.wall_time_s
  end;
  Format.printf "@?"

let write_stats_json path file runs =
  let doc =
    Datalog_engine.Json.Obj
      [ ("schema_version", Datalog_engine.Json.Int 8);
        ("file", Datalog_engine.Json.String file);
        ("runs", Datalog_engine.Json.List (List.rev runs))
      ]
  in
  if path = "-" then Datalog_engine.Json.to_channel stdout doc
  else
    Out_channel.with_open_text path (fun oc ->
        Datalog_engine.Json.to_channel oc doc)

let run_cmd =
  let action file query strategy negation sips stats stats_json trace data
      (limits : ?cancelled:(unit -> bool) -> unit -> Datalog_engine.Limits.t)
      checkpoint_path checkpoint_every resume_path snapshot_mode
      explain no_merge no_subsume =
    match
      Result.bind (read_program file) (fun parsed ->
          Result.map (fun p -> (parsed, p))
            (with_data data parsed.Datalog_parser.Parser.program))
    with
    | Error msg ->
      prerr_endline msg;
      1
    | Ok (parsed, program) ->
      let queries =
        match query with
        | Some q -> (
          match parse_query q with
          | Ok atom -> Ok [ atom ]
          | Error e -> Error e)
        | None -> (
          match parsed.Datalog_parser.Parser.queries with
          | [] -> Error "no query: none in the file, none on the command line"
          | qs -> Ok qs)
      in
      (match queries with
      | Error msg ->
        prerr_endline msg;
        1
      | Ok queries ->
        let checkpoint =
          match checkpoint_path with
          | None -> Datalog_engine.Checkpoint.none
          | Some path ->
            Datalog_engine.Checkpoint.create ~path
              ~every:(max 1 checkpoint_every) ()
        in
        let limits =
          match checkpoint_path with
          | Some _ -> limits ~cancelled:(install_interrupt ()) ()
          | None -> limits ()
        in
        let options =
          { O.strategy;
            negation;
            sips;
            limits;
            profile = stats || Option.is_some stats_json;
            trace =
              (if trace then
                 Some (fun line -> Printf.eprintf "%% trace: %s\n%!" line)
               else None);
            checkpoint;
            merge = not no_merge;
            subsume = not no_subsume;
            explain = explain || Option.is_some stats_json
          }
        in
        (* resume applies to a single query: a checkpoint records one
           evaluation, and its context check would reject any other *)
        let resume =
          match resume_path with
          | None -> Ok None
          | Some _ when List.length queries <> 1 ->
            prerr_endline "--resume requires exactly one query";
            Error 1
          | Some path -> (
            match
              Datalog_engine.Checkpoint.load ~mode:snapshot_mode path
            with
            | Ok (r, warnings) ->
              List.iter
                (fun w ->
                  Printf.eprintf "%% warning: %s\n%!"
                    (Datalog_storage.Snapshot.describe_warning w))
                warnings;
              Ok (Some r)
            | Error c -> (
              let msg = Datalog_storage.Snapshot.describe_corruption c in
              match snapshot_mode with
              | Datalog_storage.Snapshot.Strict ->
                Printf.eprintf "corrupt checkpoint %s: %s\n%!" path msg;
                Error Alexander.Errors.corrupt_snapshot_exit_code
              | Datalog_storage.Snapshot.Lenient ->
                Printf.eprintf
                  "%% warning: unusable checkpoint %s (%s); evaluating \
                   from scratch\n\
                   %!"
                  path msg;
                Ok None))
        in
        (match resume with
        | Error code -> code
        | Ok resume_from ->
          let json_runs = ref [] in
          let prepared = S.prepare program in
          (* the first abnormal condition decides the exit code: 1 for
             errors, 3-7 for the exhaustion reasons (see Errors) *)
          let code =
            List.fold_left
              (fun code query ->
                Format.printf "?- %a.@." Atom.pp query;
                match S.run_prepared ~options ?resume_from prepared query with
                | Ok report ->
                  print_report query report ~stats;
                  if explain then print_plans report;
                  if Option.is_some stats_json then
                    json_runs := S.report_json ~query report :: !json_runs;
                  let this =
                    match report.S.status with
                    | Datalog_engine.Limits.Complete -> 0
                    | Datalog_engine.Limits.Exhausted reason ->
                      Alexander.Errors.exhaustion_exit_code reason
                  in
                  if code <> 0 then code else this
                | Error e ->
                  prerr_endline (Alexander.Errors.message e);
                  if code <> 0 then code else Alexander.Errors.exit_code e)
              0 queries
          in
          Option.iter (fun path -> write_stats_json path file !json_runs)
            stats_json;
          code))
  in
  let term =
    Term.(
      const action $ file_arg $ query_arg $ strategy_arg $ negation_arg
      $ sips_arg $ stats_arg $ stats_json_arg $ trace_arg $ data_arg
      $ limits_term $ checkpoint_arg $ checkpoint_every_arg $ resume_arg
      $ snapshot_mode_arg $ explain_arg $ no_merge_arg
      $ no_subsume_arg)
  in
  Cmd.v (Cmd.info "run" ~doc:"Evaluate queries against a program") term

let dot_arg =
  Arg.(value & flag & info [ "dot" ] ~doc:"Emit the dependency graph as Graphviz")

let analyze_cmd =
  let action file dot =
    match read_program file with
    | Error msg ->
      prerr_endline msg;
      1
    | Ok parsed ->
      let program = parsed.Datalog_parser.Parser.program in
      let module An = Datalog_analysis in
      if dot then begin
        Format.printf "%a" An.Depgraph.pp_dot (An.Depgraph.make program);
        exit 0
      end;
      Format.printf "rules: %d, facts: %d@." (Program.num_rules program)
        (Program.num_facts program);
      Format.printf "idb: %a@."
        (Format.pp_print_list ~pp_sep:Format.pp_print_space Pred.pp)
        (Pred.Set.elements (Program.idb program));
      Format.printf "edb: %a@."
        (Format.pp_print_list ~pp_sep:Format.pp_print_space Pred.pp)
        (Pred.Set.elements (Program.edb program));
      (match An.Safety.check_program program with
      | Ok () -> Format.printf "safety: all rules range-restricted@."
      | Error errs ->
        List.iter (fun e -> Format.printf "safety: %s@." e) errs);
      (match An.Stratify.stratification program with
      | Some strata ->
        Format.printf "stratified: yes (%d strata)@."
          (Array.length strata.An.Stratify.groups)
      | None ->
        Format.printf "stratified: no@.";
        (match An.Loose.check program with
        | An.Loose.Loose -> Format.printf "loosely stratified: yes@."
        | An.Loose.Not_loose trace ->
          Format.printf "loosely stratified: no@.";
          List.iter (fun s -> Format.printf "  %s@." s) trace
        | An.Loose.Inconclusive ->
          Format.printf "loosely stratified: inconclusive@.");
        (match An.Stratify.locally_stratified_ground ~prune_edb:true program with
        | An.Stratify.Locally_stratified ->
          Format.printf "locally stratified (EDB-aware): yes@."
        | An.Stratify.Not_locally_stratified _ ->
          Format.printf "locally stratified (EDB-aware): no@."
        | An.Stratify.Ground_too_large ->
          Format.printf "locally stratified (EDB-aware): instantiation too large@."));
      0
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Report safety and stratification analyses")
    Term.(const action $ file_arg $ dot_arg)

let rewrite_cmd =
  let action file query strategy sips =
    match read_program file with
    | Error msg ->
      prerr_endline msg;
      1
    | Ok parsed -> (
      match Option.to_result ~none:"missing --query" query with
      | Error msg ->
        prerr_endline msg;
        1
      | Ok q -> (
        match parse_query q with
        | Error msg ->
          prerr_endline msg;
          1
        | Ok query ->
          let program =
            Alexander.Preprocess.split_idb_facts
              parsed.Datalog_parser.Parser.program
          in
          let adorned = Datalog_rewrite.Adorn.adorn ~strategy:sips program query in
          let rw =
            match strategy with
            | O.Magic -> Datalog_rewrite.Magic.transform adorned
            | O.Supplementary -> Datalog_rewrite.Supplementary.transform adorned
            | O.Supplementary_idb ->
              Datalog_rewrite.Supplementary_idb.transform adorned
            | O.Alexander | O.Naive | O.Seminaive | O.Tabled ->
              Datalog_rewrite.Alexander_templates.transform adorned
          in
          Format.printf "%a" Datalog_rewrite.Rewritten.pp rw;
          0))
  in
  Cmd.v
    (Cmd.info "rewrite" ~doc:"Print the rewritten program for a query")
    Term.(const action $ file_arg $ query_arg $ strategy_arg $ sips_arg)

let equiv_cmd =
  let action file query sips =
    match read_program file with
    | Error msg ->
      prerr_endline msg;
      1
    | Ok parsed -> (
      match Option.to_result ~none:"missing --query" query with
      | Error msg ->
        prerr_endline msg;
        1
      | Ok q -> (
        match parse_query q with
        | Error msg ->
          prerr_endline msg;
          1
        | Ok query -> (
          match
            Alexander.Equivalence.check ~sips
              parsed.Datalog_parser.Parser.program query
          with
          | Ok outcome ->
            Format.printf "%a" Alexander.Equivalence.pp_outcome outcome;
            if outcome.Alexander.Equivalence.equivalent then 0 else 1
          | Error msg ->
            prerr_endline msg;
            1)))
  in
  Cmd.v
    (Cmd.info "equiv"
       ~doc:"Check the Alexander/supplementary-magic equivalence on a query")
    Term.(const action $ file_arg $ query_arg $ sips_arg)

let explain_cmd =
  let action file query =
    match read_program file with
    | Error msg ->
      prerr_endline msg;
      1
    | Ok parsed -> (
      match Option.to_result ~none:"missing --query (a ground atom)" query with
      | Error msg ->
        prerr_endline msg;
        1
      | Ok q -> (
        match parse_query q with
        | Error msg ->
          prerr_endline msg;
          1
        | Ok goal ->
          if not (Datalog_ast.Atom.is_ground goal) then begin
            prerr_endline "explain needs a ground goal, e.g. 'anc(ann, cal)'";
            1
          end
          else
            let program = parsed.Datalog_parser.Parser.program in
            (match Datalog_engine.Provenance.explain program goal with
            | Ok (Some proof) ->
              Format.printf "%a@." Datalog_engine.Provenance.pp proof;
              Format.printf "%% proof height %d, %d nodes@."
                (Datalog_engine.Provenance.depth proof)
                (Datalog_engine.Provenance.size proof);
              0
            | Ok None ->
              Format.printf "%a is not derivable.@." Atom.pp goal;
              1
            | Error msg ->
              prerr_endline msg;
              1)))
  in
  Cmd.v
    (Cmd.info "explain" ~doc:"Print a derivation tree for a ground goal")
    Term.(const action $ file_arg $ query_arg)

let repl_cmd =
  let action file strategy negation sips stats
      (limits : ?cancelled:(unit -> bool) -> unit -> Datalog_engine.Limits.t)
      =
    let program =
      match file with
      | None -> Ok Datalog_ast.Program.empty
      | Some path ->
        Result.map (fun p -> p.Datalog_parser.Parser.program) (read_program path)
    in
    match program with
    | Error msg ->
      prerr_endline msg;
      1
    | Ok program ->
      let program = ref program in
      let options =
        ref { O.default with O.strategy; negation; sips; limits = limits () }
      in
      let stats = ref stats in
      print_endline
        "alexander repl - enter clauses to assert, '?- goal.' to query,";
      print_endline ":strategy NAME | :negation MODE | :stats | :program | :quit";
      let rec loop () =
        print_string "> ";
        match In_channel.input_line stdin with
        | None -> 0
        | Some line -> dispatch (String.trim line)
      and dispatch line =
        if line = "" then loop ()
        else if String.length line > 0 && line.[0] = ':' then command line
        else
          match Datalog_parser.Parser.parse_string_exn line with
          | parsed ->
            let queries = parsed.Datalog_parser.Parser.queries in
            let additions = parsed.Datalog_parser.Parser.program in
            if
              Datalog_ast.Program.num_rules additions > 0
              || Datalog_ast.Program.num_facts additions > 0
            then begin
              program := Datalog_ast.Program.union !program additions;
              Printf.printf "asserted %d clause(s).\n"
                (Datalog_ast.Program.num_rules additions
                + Datalog_ast.Program.num_facts additions)
            end;
            List.iter
              (fun query ->
                match S.run ~options:!options !program query with
                | Ok report -> print_report query report ~stats:!stats
                | Error e -> prerr_endline (Alexander.Errors.message e))
              queries;
            loop ()
          | exception Datalog_parser.Parser.Parse_error (msg, pos) ->
            Printf.printf "parse error at column %d: %s\n"
              pos.Datalog_parser.Lexer.col msg;
            loop ()
      and command line =
        let parts =
          String.split_on_char ' ' line |> List.filter (fun s -> s <> "")
        in
        (match parts with
        | [ ":quit" ] | [ ":q" ] -> exit 0
        | [ ":stats" ] ->
          stats := not !stats;
          Printf.printf "stats %s\n" (if !stats then "on" else "off")
        | [ ":program" ] -> Format.printf "%a@." Datalog_ast.Program.pp !program
        | [ ":strategy"; name ] -> (
          match O.strategy_of_string name with
          | Some s ->
            options := { !options with O.strategy = s };
            Printf.printf "strategy = %s\n" (O.strategy_name s)
          | None -> Printf.printf "unknown strategy %S\n" name)
        | [ ":negation"; name ] -> (
          match O.negation_of_string name with
          | Some n ->
            options := { !options with O.negation = n };
            Printf.printf "negation = %s\n" (O.negation_name n)
          | None -> Printf.printf "unknown negation mode %S\n" name)
        | _ -> print_endline "unknown command");
        loop ()
      in
      loop ()
  in
  let optional_file =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Initial program to load")
  in
  Cmd.v
    (Cmd.info "repl" ~doc:"Interactive session")
    Term.(
      const action $ optional_file $ strategy_arg $ negation_arg $ sips_arg
      $ stats_arg $ limits_term)

let () =
  let doc = "Alexander templates deductive database engine" in
  let info = Cmd.info "alexander_cli" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ run_cmd; analyze_cmd; rewrite_cmd; equiv_cmd; explain_cmd; repl_cmd ]))

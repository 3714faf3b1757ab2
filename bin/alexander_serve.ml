(* alexander_serve: run a Datalog program as a long-lived service.

   Usage examples:
     alexander_serve program.dl --socket /tmp/alex.sock --snapshot state.alexsnap
     alexander_serve program.dl --port 4711 --queue-depth 32 --timeout 2
     echo '{"op":"query","goal":"anc(ann, X)"}' | socat - UNIX:/tmp/alex.sock

   The protocol is one JSON object per line; see docs/ROBUSTNESS.md. *)

open Cmdliner
module Srv = Datalog_server
module O = Alexander.Options

let file_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"FILE" ~doc:"Datalog program (.dl) served by the loop")

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Listen on a Unix-domain socket at PATH (replaces a stale one)")

let port_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "port" ] ~docv:"PORT" ~doc:"Listen on TCP PORT instead")

let host_arg =
  Arg.(
    value
    & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"ADDR" ~doc:"Bind address for --port")

let snapshot_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "snapshot" ] ~docv:"FILE"
        ~doc:
          "The one file of durable state, a CRC-framed log: an optional \
           base image of the database, then one frame per acked \
           mutation.  Loaded on startup (strict, then lenient: a torn \
           last transaction is cut off), rotated into a fresh base when \
           the log grows, and rotated on shutdown")

let fsync_conv =
  let parse s =
    match Datalog_storage.Wal.fsync_policy_of_string s with
    | Ok p -> Ok p
    | Error msg -> Error (`Msg msg)
  in
  Arg.conv
    ( parse,
      fun ppf p ->
        Format.pp_print_string ppf (Datalog_storage.Wal.fsync_policy_name p) )

let fsync_arg =
  Arg.(
    value
    & opt fsync_conv Datalog_storage.Wal.Always
    & info [ "fsync" ] ~docv:"POLICY"
        ~doc:
          "Log flush policy: $(b,always) (fsync before every ack), \
           $(b,interval)[:SECONDS] (group commit, default 0.05s window), \
           or $(b,never) (leave it to the OS)")

let wal_max_bytes_arg =
  Arg.(
    value
    & opt int (4 * 1024 * 1024)
    & info [ "wal-max-bytes" ] ~docv:"N"
        ~doc:
          "Rotation threshold: once the mutations logged since the base \
           exceed N bytes, install a log holding only a fresh base")

let idempotency_keys_arg =
  Arg.(
    value
    & opt int 1024
    & info [ "idempotency-keys" ] ~docv:"N"
        ~doc:
          "How many committed idempotency keys are remembered for retry \
           deduplication (FIFO eviction, persisted across restarts); 0 \
           disables the table")

let no_durable_acks_arg =
  Arg.(
    value
    & flag
    & info [ "no-durable-acks" ]
        ~doc:
          "Do not persist before acking each mutation; rely on the \
           periodic base install instead (faster acks, bounded loss \
           window)")

let snapshot_every_arg =
  Arg.(
    value
    & opt float 30.0
    & info [ "snapshot-every" ] ~docv:"SECONDS"
        ~doc:"Periodic base install cadence (with --no-durable-acks)")

let queue_depth_arg =
  Arg.(
    value
    & opt int 64
    & info [ "queue-depth" ] ~docv:"N"
        ~doc:
          "Admission queue bound; requests beyond it get an 'overloaded' \
           reply with a retry hint instead of unbounded latency")

let session_inflight_arg =
  Arg.(
    value
    & opt int 16
    & info [ "session-inflight" ] ~docv:"N"
        ~doc:"Per-session cap on admitted-but-unanswered requests")

let cache_size_arg =
  Arg.(
    value
    & opt int 128
    & info [ "cache-size" ] ~docv:"N"
        ~doc:
          "Answer-cache capacity (adornment-keyed, LRU, invalidated by \
           fact deltas); 0 disables")

let timeout_arg =
  Arg.(
    value
    & opt float 5.0
    & info [ "timeout" ] ~docv:"SECONDS"
        ~doc:
          "Default per-request deadline (queue wait included); requests \
           may override with their own timeout_s field")

let max_facts_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-facts" ] ~docv:"N" ~doc:"Default per-request derivation cap")

let data_arg =
  Arg.(
    value
    & opt (some dir) None
    & info [ "data" ] ~docv:"DIR"
        ~doc:"Directory of .csv/.tsv files loaded as extensional facts")

let strategy_conv =
  let parse s =
    match O.strategy_of_string s with
    | Some v -> Ok v
    | None -> Error (`Msg (Printf.sprintf "unknown strategy %S" s))
  in
  Arg.conv (parse, fun ppf s -> Format.pp_print_string ppf (O.strategy_name s))

let strategy_arg =
  Arg.(
    value
    & opt strategy_conv O.default.O.strategy
    & info [ "s"; "strategy" ] ~docv:"STRATEGY"
        ~doc:"Evaluation strategy for engine-mode queries")

let quiet_arg =
  Arg.(value & flag & info [ "quiet" ] ~doc:"No log lines on stderr")

let serve_cmd =
  let action file socket port host snapshot fsync wal_max_bytes
      idempotency_keys no_durable_acks snapshot_every queue_depth
      session_inflight cache_size timeout max_facts data strategy quiet =
    let listen =
      match (socket, port) with
      | Some path, None -> Ok (Srv.Server.Unix_path path)
      | None, Some p -> Ok (Srv.Server.Tcp (host, p))
      | None, None -> Error "one of --socket or --port is required"
      | Some _, Some _ -> Error "--socket and --port are mutually exclusive"
    in
    let program =
      match Datalog_parser.Parser.parse_file file with
      | Error msg -> Error msg
      | Ok parsed -> (
        let program = parsed.Datalog_parser.Parser.program in
        match data with
        | None -> Ok program
        | Some dir ->
          Result.map
            (fun atoms ->
              Datalog_ast.Program.make
                ~facts:(Datalog_ast.Program.facts program @ atoms)
                (Datalog_ast.Program.rules program))
            (Datalog_storage.Io.load_directory dir))
    in
    match (listen, program) with
    | Error msg, _ | _, Error msg ->
      prerr_endline msg;
      1
    | Ok listen, Ok program -> (
      let log =
        if quiet then ignore
        else fun line -> Printf.eprintf "%% serve: %s\n%!" line
      in
      let supervisor =
        { Srv.Supervisor.default_config with
          Srv.Supervisor.queue_depth;
          session_inflight;
          cache_capacity = cache_size;
          snapshot_path = snapshot;
          durable_acks = not no_durable_acks;
          wal_fsync = fsync;
          wal_max_bytes;
          idempotency_capacity = idempotency_keys;
          snapshot_every_s = snapshot_every;
          default_budgets =
            { Srv.Protocol.no_budgets with
              timeout_s = (if timeout <= 0.0 then None else Some timeout);
              max_facts
            };
          options = { O.default with O.strategy };
          log
        }
      in
      match Srv.Server.run { Srv.Server.listen; supervisor } program with
      | Ok code -> code
      | Error e -> (
        prerr_endline (Srv.Supervisor.startup_message e);
        (* unusable durable state has its own exit code, so
           orchestrators can tell it from a bad flag or path *)
        match e with
        | Srv.Supervisor.Corrupt_state _ ->
          Alexander.Errors.corrupt_snapshot_exit_code
        | Srv.Supervisor.Startup_failed _ -> 1))
  in
  let term =
    Term.(
      const action $ file_arg $ socket_arg $ port_arg $ host_arg
      $ snapshot_arg $ fsync_arg $ wal_max_bytes_arg
      $ idempotency_keys_arg $ no_durable_acks_arg $ snapshot_every_arg
      $ queue_depth_arg
      $ session_inflight_arg $ cache_size_arg $ timeout_arg $ max_facts_arg
      $ data_arg $ strategy_arg $ quiet_arg)
  in
  Cmd.v
    (Cmd.info "alexander_serve" ~version:"1.0.0"
       ~doc:"Serve a Datalog program over a line-JSON socket protocol")
    term

let () = exit (Cmd.eval' serve_cmd)

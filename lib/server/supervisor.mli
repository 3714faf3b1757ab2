(** The service core, independent of any socket: state, admission
    control, request execution, durability.

    Every behaviour the server must guarantee lives here so it can be
    exercised without I/O — the fault drill drives [submit]/[process_one]
    directly and kills the process (via {!Datalog_storage.Faults}
    kill-points) between the transaction steps.

    {2 Execution modes}

    A {e positive} program (no negation) is kept {e saturated}: the
    database holds every derivable fact, mutations propagate through
    {!Datalog_engine.Incremental} (transactionally — a budget blown
    mid-propagation rolls the whole batch back), and queries are served
    by scanning the saturated relation.  A program with negation keeps
    only base facts and answers queries with a full engine run under the
    request budget; exhaustion surfaces as a ["partial"] reply.  Engine
    runs read the live database in place ({!Alexander.Solve.prepare_over}).

    {2 Durability contract}

    The durable state is one {!Datalog_storage.Wal} log at
    [snapshot_path]: an optional base frame (the whole database, the
    acked-transaction counter and the idempotency table), then one frame
    per committed transaction.  With durable acks, a mutation appends
    its frame, fsyncs (policy permitting), applies in memory, {e then}
    acks — so durability costs O(batch), not O(database), per
    transaction.  Recovery is one load: the base, then every later
    transaction replayed in order.  On restart every {e acked} batch is
    present, every {e unacked} batch is absent or fully applied, and
    under the [always] fsync policy the recovered state is exactly the
    acked prefix plus at most the one in-flight transaction.  An append
    {e failure} (as opposed to a crash) refuses the transaction before
    anything applies; an apply failure truncates the already-appended
    frame back out of the log.  When the transactions appended since the
    base outgrow [wal_max_bytes] (and on {!snapshot_now}), a log holding
    only a new base is installed atomically over the file and the writer
    moves onto it — rotation.

    Mutations may carry a client idempotency key ([key] field): the key
    is recorded in the log with the committed transaction and held in a
    bounded table (rebuilt on recovery from the base's meta + replay), so
    a client that times out and retries an applied-but-unacked request
    gets the original ack back ([idempotent:true]) instead of a double
    apply — exactly-once end to end.

    Kill-points ["wal.appended"] (frame written, not yet fsynced),
    ["server.wal-synced"] (durable, not yet applied),
    ["server.pre-ack"] (applied, client never saw the ack) and
    ["server.rotate-installed"] (new base installed, writer not yet
    moved onto it) let the drill cut at the interesting instants. *)

open Datalog_ast
module Json = Datalog_engine.Json

type config = {
  queue_depth : int;  (** admission queue bound; beyond it, shed *)
  session_inflight : int;  (** per-session cap on admitted requests *)
  default_budgets : Protocol.budgets;
  retry_after_s : float;  (** hint attached to overload replies *)
  cache_capacity : int;
  snapshot_path : string option;
      (** the one log file holding the durable state; durability is off
          when [None] *)
  durable_acks : bool;
      (** [true] (default): every mutation is appended to the log before
          its ack — the ack is a durability receipt (exact under the
          [always] fsync policy).  [false]: acks are memory-only, and a
          periodic base install bounds the loss window to
          [snapshot_every_s]. *)
  wal_fsync : Datalog_storage.Wal.fsync_policy;
      (** [Always] (default), [Interval s] (group commit), or [Never] *)
  wal_max_bytes : int;
      (** rotation threshold on the transaction bytes appended since the
          base *)
  idempotency_capacity : int;
      (** how many committed idempotency keys are remembered (FIFO
          eviction); [0] disables the table *)
  snapshot_every_s : float;
      (** periodic snapshot cadence (non-WAL mode only) *)
  options : Alexander.Options.t;  (** engine-mode evaluation options *)
  log : string -> unit;
}

val default_config : config
(** Queue depth 64, 16 in-flight per session, 5s default timeout,
    0.1s retry hint, cache capacity 128, no snapshot path, durable
    acks, always-fsync, 4 MiB rotation threshold, 1024 idempotency
    keys, 30s cadence, default engine options, silent log. *)

type t

type startup_error =
  | Corrupt_state of string
      (** the durable state cannot be used: unreadable even leniently, a
          damaged base, a replay failure, an image of the other mode, or
          a separate log from an older version *)
  | Startup_failed of string
      (** anything else: an unsafe program, a log that cannot be opened
          for append, an unbindable socket *)

val startup_message : startup_error -> string

val start : config -> Program.t -> (t, startup_error) result
(** Check the program's safety, then warm start: the log at the snapshot
    path is loaded Strict, then Lenient (a torn transaction tail is cut
    off with a logged line; a damaged base refuses in both modes).  The
    base, if any, is the database (a base-mode image is saturated for a
    positive program); the transactions after it are replayed in order,
    and a gap or replay failure refuses to start.  With no base, a
    positive program is saturated from its facts and a program with
    negation starts from its base facts.  With durable acks the writer
    then opens at the end of the valid prefix (a fresh log gets just a
    header). *)

val create : config -> Program.t -> (t, string) result
(** {!start}, with the error as its message. *)

val positive : t -> bool
val txn : t -> int
val db : t -> Datalog_storage.Database.t
val pending : t -> int
val cache : t -> Cache.t

val wal_active : t -> bool
(** Whether mutations are riding a write-ahead log. *)

type admission = Admitted | Overloaded of float | Session_capped

val submit :
  t -> session:int -> now:float -> Protocol.envelope -> admission
(** Admission happens before any execution: a full queue sheds the
    request (bounded work, explicit reply), a session over its in-flight
    cap is told to back off without penalising other sessions.  An
    admitted request's deadline is fixed here — queue wait counts
    against the budget. *)

val forget_session : t -> int -> unit

val process_one : t -> now:float -> (int * Json.t * [ `Continue | `Stop ]) option
(** Pop and execute the oldest admitted request; [None] on an empty
    queue.  A request whose deadline passed while queued is answered
    with an error without being executed.  [`Stop] reports a shutdown
    request (the reply must still be delivered). *)

val handle :
  t -> now:float -> ?deadline:float -> Protocol.envelope ->
  Json.t * [ `Continue | `Stop ]
(** Execute a request immediately (the path [process_one] uses;
    exposed for control requests that bypass the queue). *)

val snapshot_now : t -> (unit, string) result
(** Install a log holding only a base of the current state (in WAL mode,
    a rotation); no-op without a snapshot path. *)

val maybe_snapshot : t -> now:float -> unit
(** The serve loop's periodic tick.  In WAL mode this drives the
    [Interval] group-commit fsync; otherwise it installs a periodic base
    when the cadence elapsed and a transaction landed since the last
    install. *)

val stats_fields : t -> (string * Json.t) list

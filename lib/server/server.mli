(** The serve loop: a single-process, single-threaded [select] server
    speaking the line protocol over a Unix-domain or TCP socket.

    One thread is a feature here: requests execute one at a time in
    admission order, so there is no locking, every reply reflects a
    consistent database state, and the fault drill can reason about the
    exact interleaving.  Concurrency is bounded by admission control
    (the supervisor's queue), not by spawning.

    Shutdown: SIGTERM (or one SIGINT, or a ["shutdown"] request) stops
    accepting input, drains the admitted queue, flushes replies, installs
    a final base, and exits 0.  A second SIGINT aborts immediately — the
    log as of the last ack still satisfies the recovery contract, which
    is the point of ack-after-persist. *)

type listen =
  | Unix_path of string  (** a stale socket file is replaced *)
  | Tcp of string * int  (** bind address, port *)

type config = { listen : listen; supervisor : Supervisor.config }

val run :
  config -> Datalog_ast.Program.t -> (int, Supervisor.startup_error) result
(** Returns the process exit code (0 on clean shutdown) or the typed
    startup failure (unusable durable state, unsafe program, unbindable
    socket). *)

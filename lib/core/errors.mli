(** Typed errors for the query planner and runner.

    Everything {!Solve.run} can reject is enumerated here, replacing the
    stringly [Error msg] plumbing: callers can match on the class (to pick
    an exit code, a retry policy, a user message) without parsing text.
    Budget exhaustion is deliberately {e not} an error — engines degrade
    to a partial report with [status = Exhausted _] instead — but the exit
    codes the CLI uses for it are defined here so they stay documented in
    one place. *)

type t =
  | Unsafe_program of string list
      (** range-restriction violations, one message per offending rule *)
  | Not_stratified of string
      (** negation is not stratified and the options demand stratified
          evaluation *)
  | Evaluation of string
      (** runtime safety violation (non-ground negation/comparison/head
          reached during evaluation) or an engine precondition failure *)

val message : t -> string
(** Human-readable rendering (what the former string errors contained). *)

val pp : Format.formatter -> t -> unit

val exit_code : t -> int
(** CLI exit code for the error class: all errors map to [1]. *)

val exhaustion_exit_code : Datalog_engine.Limits.reason -> int
(** Distinct CLI exit codes for graceful degradation: timeout [3],
    max-facts [4], max-iterations [5], max-tuples [6], cancelled [7]
    ([2] is reserved by the CLI parser for usage errors). *)

val corrupt_snapshot_exit_code : int
(** CLI exit code [8]: a checkpoint or snapshot failed its integrity
    checks under [--snapshot-strict] (the default). *)

(** Per-rule / per-predicate / per-round evaluation profiling.

    A {!t} is threaded through the evaluators exactly like
    {!Limits.guard}: the {!none} sentinel is inactive and every
    recording entry point is a single branch, so unprofiled runs pay
    nothing measurable.  An active profile (from {!create}) accumulates
    counter deltas and wall-clock time attributed to rules, predicates,
    strata and fixpoint rounds, and can stream a per-round trace to a
    caller-supplied sink.

    Timing uses [Unix.gettimeofday] — the same clock as {!Limits} — as
    the switch ships no monotonic-clock library.  The counter columns
    (firings, probes, scanned, derived) are deterministic and
    machine-independent; the time columns are indicative. *)

open Datalog_ast

type rule_row = private {
  rule_text : string;  (** the rule, pretty-printed; the row key *)
  mutable evals : int;  (** times the rule was (re-)evaluated *)
  mutable firings : int;
  mutable probes : int;
  mutable scanned : int;
  mutable derived : int;  (** genuinely new facts from this rule *)
  mutable merge_steps : int;  (** fused merge-join executions *)
  mutable gallops : int;  (** exponential searches inside those *)
  mutable r_subsumed : int;  (** facts diverted by the subsumption filter *)
  mutable time_s : float;
}

type pred_row = private {
  pred_name : string;
  pred_arity : int;
  mutable p_probes : int;  (** index probes against this predicate *)
  mutable p_scanned : int;  (** candidate tuples scanned in those probes *)
  mutable p_derived : int;  (** new facts stored for this predicate *)
  mutable p_merge_steps : int;  (** merge joins with this pred sorted-side *)
  mutable p_gallops : int;  (** exponential searches inside those *)
  mutable p_subsumed : int;
      (** facts of this predicate dropped as subsumed ({!Subsume}) *)
}

type round_row = private {
  round : int;  (** 1-based, global across strata *)
  round_stratum : int;  (** 0 outside stratified evaluation *)
  round_derived : int;
  round_time_s : float;
}

type stratum_row = private {
  stratum : int;
  mutable s_rounds : int;
  mutable s_derived : int;
  mutable s_time_s : float;
}

type t

val none : t
(** The inactive profile: all recording operations are no-ops. *)

val create : ?trace:(string -> unit) -> unit -> t
(** An active profile.  When [trace] is given, each completed round and
    stratum emits one human-readable line to it, as do engine-specific
    {!note} calls (e.g. well-founded alternation steps). *)

val is_active : t -> bool

val note : t -> (unit -> string) -> unit
(** Emit a free-form trace line; the thunk only runs when a trace sink
    is installed. *)

(** {1 Recording}

    The [with_*] scopes attribute the enclosed work — measured as deltas
    of the shared {!Counters.t} — to a row.  They record on exceptional
    exit too, so work done before a {!Limits.Out_of_budget} abort stays
    attributed. *)

val with_rule : t -> Counters.t -> Rule.t -> (unit -> 'a) -> 'a
val with_round : t -> Counters.t -> (unit -> 'a) -> 'a
val with_stratum : t -> Counters.t -> int -> (unit -> 'a) -> 'a

val probe : t -> Pred.t -> scanned:int -> unit
(** Record one index probe against [pred] that scanned [scanned]
    candidate tuples. *)

val merge : t -> Pred.t -> gallops:int -> unit
(** Record one merge-join execution whose sorted side was [pred],
    performing [gallops] exponential searches. *)

val derived : t -> Pred.t -> unit
(** Record one genuinely new fact stored for [pred]. *)

val subsumed : t -> Pred.t -> unit
(** Record one fact of [pred] dropped by the adornment-lattice
    subsumption filter (and diverted into its companion relation). *)

(** {1 Reading} *)

val rules : t -> rule_row list
(** Rows in first-seen order; empty for {!none}. *)

val preds : t -> pred_row list
val rounds : t -> round_row list
val strata : t -> stratum_row list

val to_json : t -> Json.t
(** [{"enabled"; "rules"; "predicates"; "strata"; "rounds"}] — see
    docs/OBSERVABILITY.md for the field-level schema. *)

val pp : Format.formatter -> t -> unit
(** One line per rule row, for the CLI's [--stats] text mode. *)

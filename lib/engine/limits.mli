(** Resource governor: budgets and cooperative cancellation for every
    evaluation engine.

    A {!t} value carries the configured budgets; {!guard} compiles it
    against the {!Counters.t} an engine is already maintaining, so the
    hot-path check is a single branch plus integer comparisons.  The
    wall clock and the cancellation callback are only consulted every
    few hundred checks (and once per fixpoint round), keeping the cost
    of an active guard negligible.

    Exhaustion is signalled by the {!Out_of_budget} exception, which the
    engine entry points catch and convert into the {!status} field of
    their outcome — the partially evaluated database is left intact, so
    callers can degrade to partial answers instead of losing the run. *)

open Datalog_storage

type reason =
  | Timeout  (** the wall-clock deadline passed *)
  | Fact_limit  (** more facts derived than [max_facts] *)
  | Iteration_limit  (** more fixpoint rounds than [max_iterations] *)
  | Tuple_limit  (** some relation grew beyond [max_tuples] *)
  | Cancelled  (** the cancellation callback returned [true] *)

type status =
  | Complete  (** the fixpoint was reached *)
  | Exhausted of reason
      (** evaluation stopped early; results are a sound partial
          under-approximation for positive programs (see
          [docs/ROBUSTNESS.md] for the caveats under negation) *)

type t = {
  timeout_s : float option;  (** wall-clock budget, in seconds *)
  max_facts : int option;  (** cap on derived facts (per engine run) *)
  max_iterations : int option;  (** cap on fixpoint rounds *)
  max_tuples : int option;  (** cap on the size of any one relation *)
  cancelled : (unit -> bool) option;
      (** cooperative cancellation hook, polled alongside the clock *)
}

exception Out_of_budget of reason
(** Internal control flow between the inner loops and the engine entry
    points; it never escapes a [run] function. *)

val none : t
(** No budgets: evaluation behaves exactly as if ungoverned. *)

val is_none : t -> bool

val make :
  ?timeout_s:float ->
  ?max_facts:int ->
  ?max_iterations:int ->
  ?max_tuples:int ->
  ?cancelled:(unit -> bool) ->
  unit ->
  t

type guard
(** A limit set compiled against one engine's counters.  The deadline is
    fixed when the guard is created, so create it when evaluation
    starts. *)

val no_guard : guard
(** The inactive guard: {!check} on it is a single branch. *)

val guard : t -> Counters.t -> guard
(** [guard limits cnt] is {!no_guard} when [limits] {!is_none}. *)

val is_active : guard -> bool

val check : guard -> unit
(** The hot-path check, called once per candidate tuple / derived fact:
    compares the fact counter against its cap and, every 512 calls,
    consults the clock and the cancellation hook.
    @raise Out_of_budget on exhaustion. *)

val check_derived : guard -> unit
(** The per-derivation poll, called at every rule firing of a compiled
    plan ({!Plan.run}): fact cap unconditionally, clock and
    cancellation every 64 derivations.  Without it, one explosive
    fixpoint round whose candidates mostly fire could overshoot a
    wall-clock deadline by the whole round's derivation work; with it,
    the overshoot is bounded by a constant number of derivations.
    @raise Out_of_budget on exhaustion. *)

val check_round : guard -> unit
(** The per-fixpoint-round check: iteration and fact caps, clock and
    cancellation, unconditionally.
    @raise Out_of_budget on exhaustion. *)

val check_clock : guard -> unit
(** Only the clock and the cancellation hook — for post-processing phases
    (e.g. reduction) that must still run after a count cap was hit.
    @raise Out_of_budget on exhaustion. *)

val check_relation : guard -> Relation.t -> unit
(** Enforce [max_tuples] on a relation that just grew.
    @raise Out_of_budget on exhaustion. *)

val reason_name : reason -> string
(** Stable machine-readable name: ["timeout"], ["max-facts"],
    ["max-iterations"], ["max-tuples"], ["cancelled"]. *)

val pp_reason : Format.formatter -> reason -> unit
val pp_status : Format.formatter -> status -> unit

val describe : t -> string
(** Human-readable summary of the configured budgets, e.g.
    ["timeout=1.0s max-facts=100000"]; ["unlimited"] for {!none}. *)

(** Well-founded semantics, computed bottom-up.

    {!run} is the transformation-based engine (after Brass & Dix,
    "Transformation-Based Bottom-Up Computation of the Well-Founded
    Model"): two compiled seminaive fixpoints bracket the model — the
    {e definite} subset (negations all extensional) underestimates the
    true atoms, the program with intensional negations stripped
    overestimates the possible ones — and a single conditional fixpoint
    ({!Conditional}) handles the undecided slice, with its delayed
    negations pre-decided against the two approximations (the success
    and failure transformations) and its residual program reduced by
    positive reduction.  The bulk of the work thus runs through the same
    compiled-plan join machinery, counters and budget guard as the other
    engines.

    On stratified programs the undefined set is empty and the true set is
    the perfect model, which the tests check against {!Stratified}. *)

open Datalog_ast
open Datalog_storage

type outcome = {
  true_db : Database.t;  (** EDB plus well-founded-true IDB atoms *)
  undefined : Atom.t list;  (** atoms with truth value unknown *)
  rounds : int;  (** fixpoint rounds across all phases *)
  counters : Counters.t;
  status : Limits.status;
      (** on [Exhausted _], [true_db] is a sound under-approximation of
          the well-founded true set; [undefined] is best-effort (empty
          when the budget ran out before the overestimate completed) *)
}

val run :
  ?limits:Limits.t -> ?profile:Profile.t -> ?plan:Plan.config ->
  ?db:Database.t -> Program.t ->
  outcome
(** The transformation-based engine.  [limits] bounds the evaluation
    (all phases share one budget and one counter set); [plan] (default
    [Plan.config ()]) compiles the fixpoint phases and orders the
    conditional one.  An active
    [profile] accumulates rule/round rows across every phase and traces
    each phase transition. *)

val holds : outcome -> Atom.t -> bool
val is_undefined : outcome -> Atom.t -> bool

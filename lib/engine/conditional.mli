(** The conditional fixpoint procedure.

    The immediate-consequence operator of a program with negation is not
    monotonic; the conditional operator [T_c] restores monotonicity by
    {e delaying} negative literals: instead of facts it derives ground
    {e conditional statements} [H <- not A1, ..., not Ak].  After the (now
    monotone) fixpoint is reached, a reduction phase — in the style of the
    Davis–Putnam procedure — simplifies the statements:

    - a condition [not A] is removed when [A] is neither a fact nor the
      head of a remaining statement (negation as failure);
    - a statement is deleted when some condition [not A] has [A] a fact;
    - a statement whose conditions are exhausted promotes its head to a
      fact.

    On (loosely/locally) stratified programs the reduction leaves no
    residual statements and the facts form the natural (perfect) model.  On
    other programs the residual statement heads are reported as
    {e undefined}; on the classic win–move game they coincide with the
    undefined atoms of the well-founded model (see {!Wellfounded}). *)

open Datalog_ast
open Datalog_storage

type outcome = {
  true_db : Database.t;  (** atoms proved true *)
  undefined : Atom.t list;  (** heads of residual conditional statements *)
  residual : (Atom.t * Atom.t list) list;
      (** the residual statements: head and the atoms whose absence it
          still awaits *)
  statements_generated : int;  (** conditional statements produced by [T_c] *)
  counters : Counters.t;
  status : Limits.status;
      (** [Exhausted _] when a budget ran out mid-derivation.  The
          reduction phase still runs over the truncated store, but a
          truncated store can miss conditions, so under negation the
          partial truth values are best-effort (positive programs remain a
          sound under-approximation) *)
}

val run :
  ?limits:Limits.t ->
  ?profile:Profile.t ->
  ?plan:Plan.config ->
  ?counters:Counters.t ->
  ?oracle:(Atom.t -> [ `True | `False | `Undecided ]) ->
  ?db:Database.t ->
  Program.t ->
  outcome
(** Evaluate the program under the conditional fixpoint.  [db] optionally
    pre-seeds extra EDB facts; [limits] bounds the evaluation; an active
    [profile] records per-rule and per-round rows of the monotone phase
    (the reduction phase derives no new atoms and is not attributed).
    [plan] (default [Plan.config ()]) supplies the SIP: each rule body is
    reordered once by {!Plan.reorder} before the condition-set
    interpreter runs it (the identity under [Ltr]).

    [counters] shares an existing counter set instead of creating a
    fresh one (the budget guard then also sees work recorded by earlier
    phases — used by {!Wellfounded.run}).

    [oracle] pre-decides delayed ground IDB negations [not a]: [`True]
    (a certainly true — the branch is dead, the success transformation),
    [`False] (a certainly underivable — the literal is discharged
    outright, the failure transformation) or [`Undecided] (delay into
    the condition set as usual).  A sound oracle shrinks the residual
    program without changing the computed model. *)

val holds : outcome -> Atom.t -> bool
(** Is the ground atom true in the computed model? *)

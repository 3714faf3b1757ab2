(** Incremental maintenance of a saturated database.

    Additions are monotone for positive programs, so they propagate by
    resuming the semi-naive fixpoint with the new facts as the first
    delta.  Deletions use DRed (delete and re-derive, Gupta–Mumick–
    Subrahmanian): first over-delete everything whose some derivation used
    a deleted fact, then re-derive what still has an alternative
    derivation from the remainder.

    Both operations currently require a {e positive} program (no
    negation): under negation additions can retract derived facts and
    vice versa, which DRed alone does not handle.  The facade falls back
    to recomputation in that case. *)

open Datalog_ast
open Datalog_storage

val add_facts :
  Counters.t ->
  ?limits:Limits.t ->
  ?profile:Profile.t ->
  ?plan:Plan.config ->
  ?on_change:(Pred.t -> unit) ->
  Program.t ->
  Database.t ->
  Atom.t list ->
  (int, string) result
(** [add_facts cnt program db facts] inserts the (ground, extensional)
    [facts] into the saturated [db] and propagates their consequences.
    Returns the number of new tuples (base + derived), or [Error] on a
    program with negation.  Every rule runs through plans compiled under
    [plan] (default [Plan.config ()]), as in {!Fixpoint}.

    [limits] bounds the propagation.  Unlike the query engines, exhaustion
    here is an [Error], and the operation is {e transactional}: the
    database is rolled back to its pre-call state (a half-propagated
    database no longer equals the recomputed one), so the caller can
    simply raise the budget and retry.  The rollback backup is only taken
    when [limits] is active.  Aliased references to [db]'s relations must
    be re-fetched after a rolled-back call.

    [on_change] is called once per predicate whose relation the call
    actually changed (base or derived), after the operation committed —
    the invalidation hook for answer caches layered above the database.
    It is not called on [Error] (the rollback restored every
    relation). *)

val remove_facts :
  Counters.t ->
  ?limits:Limits.t ->
  ?profile:Profile.t ->
  ?plan:Plan.config ->
  ?on_change:(Pred.t -> unit) ->
  Program.t ->
  Database.t ->
  Atom.t list ->
  (int, string) result
(** [remove_facts cnt program db facts] deletes the given extensional
    facts and every derived tuple that no longer has a derivation.
    Returns the number of tuples removed, or [Error] on a program with
    negation.  [limits], [plan] and [on_change] as in {!add_facts} (exhaustion
    rolls [db] back to its pre-call state and is reported as [Error]).

    Only [program]'s rules and its facts over IDB predicates are read;
    those facts are never over-deleted unless [facts] names them.

    Note: [db] is rebuilt in place (relations are replaced), so aliased
    references to its relations must be re-fetched afterwards. *)

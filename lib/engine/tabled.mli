(** Top-down evaluation with tabling (OLDT resolution / QSQR style).

    Goals are solved top-down, left to right, but every intensional call is
    {e tabled}: the call pattern (predicate + bound argument values) is
    recorded once, its answers accumulate in a table, and all consumers
    share them.  The table set is iterated to a fixpoint, which makes the
    method complete on recursive Datalog where plain SLD resolution loops.

    This is the procedural counterpart of the Alexander templates /
    supplementary magic rewritings: the tabled calls correspond exactly to
    the [call_p^a] (= [m_p^a]) facts and the table contents to the
    [ans_p^a] facts of the rewritten program under the same left-to-right
    sideways information passing — the correspondence Seki's comparison
    builds on, checked by the test-suite and the T7 benchmark.

    Negation: negated intensional subgoals must be ground when reached;
    they are decided by a nested, memoised tabled evaluation of the
    negated goal, which terminates on stratified programs (the planner
    only routes stratified programs here). *)

open Datalog_ast
open Datalog_storage

type call = {
  call_pred : Pred.t;
  bound : (int * Code.t) list;
      (** bound argument positions (sorted) with their codes *)
}

val call_binding : call -> string
(** The adornment string of a call, e.g. ["bf"]. *)

type outcome = {
  answers : Tuple.t list;  (** answers to the query, sorted *)
  calls : call list;  (** every distinct tabled call, in creation order *)
  tables : (call * Tuple.t list) list;  (** answers accumulated per call *)
  counters : Counters.t;
  status : Limits.status;
      (** tables grow monotonically, so on [Exhausted _] the answers and
          tables accumulated so far are a sound partial result *)
}

val run :
  ?limits:Limits.t ->
  ?profile:Profile.t ->
  ?checkpoint:Checkpoint.t ->
  ?resume_from:Checkpoint.resume ->
  ?db:Database.t ->
  ?plan:Plan.config ->
  Program.t ->
  Atom.t ->
  (outcome, string) result
(** Evaluate a query top-down with tabling.  [Error] when the program is
    not stratified (negation would be unsound) or a negated subgoal is
    reached unbound.  [limits] bounds the evaluation; note that for this
    engine an {e iteration} is one agenda step (a call being re-solved),
    not a fixpoint round.  An active [profile] keys rule rows on the
    source rules (aggregating across calls and nested negation runs);
    there are no round or stratum rows — tabling has no global rounds.

    An active [checkpoint] saves the call tables every due agenda step
    and on exhaustion (nested negation evaluations are not checkpointed);
    [resume_from] reinstalls saved tables and re-schedules every call,
    which re-saturates to exactly the uninterrupted run's answers.

    Each rule runs through calls compiled by {!Plan.compile_call} under
    [plan] (default {!Plan.config}[ ()]), one plan per rule and call
    binding, shared by nested negation evaluations. *)

val calls_for : outcome -> Pred.t -> string -> int
(** Number of distinct tabled calls to a predicate under a given
    adornment string. *)

val answers_for : outcome -> Pred.t -> string -> int
(** Distinct answers accumulated for a predicate under an adornment (the
    set union over all of its calls' tables — what the rewritten
    program's answer relation holds). *)

(** Stratified evaluation: strata are computed from the dependency graph
    and evaluated bottom-up in order, so every negated predicate is fully
    known before it is consulted. *)

open Datalog_ast
open Datalog_storage

type outcome = {
  db : Database.t;  (** EDB plus all derived facts *)
  counters : Counters.t;
  strata_count : int;
  status : Limits.status;
      (** [Exhausted _] when a budget ran out: [db] then holds the facts
          of the completed strata plus a partial last stratum — a sound
          under-approximation, since lower strata are complete before a
          higher stratum starts *)
}

val run :
  ?limits:Limits.t ->
  ?profile:Profile.t ->
  ?checkpoint:Checkpoint.t ->
  ?resume_from:Checkpoint.resume ->
  ?db:Database.t ->
  ?use_naive:bool ->
  ?plan:Plan.config ->
  ?subsume:Subsume.t ->
  Program.t ->
  (outcome, string) result
(** Evaluate the whole program.  [db] optionally supplies a pre-seeded
    database (the program's facts are always added); [use_naive] switches
    the per-stratum fixpoint from semi-naive to naive (for the ablation
    benchmarks).  Each stratum's rules are compiled under [plan]
    (default [Plan.config ()]), see {!Fixpoint}.
    An active [subsume] filter ({!Subsume}) is applied in every stratum's
    fixpoint.  An active [profile] records per-stratum, per-round and
    per-rule rows (see {!Profile}).  [limits] bounds the evaluation (see {!Limits}); on
    exhaustion the outcome is still [Ok] with [status = Exhausted _].

    An active [checkpoint] saves a resumable image at round boundaries and
    on exhaustion; [resume_from] continues such an image — completed
    strata are skipped and the saved stratum warm-starts with its delta
    (see {!Checkpoint} for the correctness argument).  The caller is
    responsible for resuming with the same program.
    [Error _] when the program is not stratified. *)

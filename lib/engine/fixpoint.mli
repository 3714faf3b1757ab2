(** Naive and semi-naive bottom-up fixpoints over one set of rules.

    Both evaluate the given rules to saturation against a database that is
    mutated in place.  The negation callback decides ground negated tuples;
    for stratified evaluation it is the closed-world test against the
    already-complete lower strata.

    Both loops consult the [guard] once per round and once per candidate
    tuple inside the joins; on budget exhaustion they raise
    {!Limits.Out_of_budget}, leaving the database with every fact derived
    so far — the engine entry points catch the exception and report a
    partial outcome.

    An active [profile] attributes each round, and each rule's share of
    the counters, to its rows.  [on_new] (default: ignore) observes every
    fact the loop inserts, in insertion order, as it is inserted —
    {!Provenance} numbers the facts of a saturation with it.  An active
    [ckpt] saves a resumable image at every due round boundary, and
    unconditionally (just before the exception escapes) on budget
    exhaustion — see {!Checkpoint} for the resume-correctness argument. *)

open Datalog_ast
open Datalog_storage

val naive :
  Counters.t ->
  ?guard:Limits.guard ->
  ?profile:Profile.t ->
  ?ckpt:Checkpoint.t ->
  ?plan:Plan.config ->
  ?subsume:Subsume.t ->
  ?on_new:(Pred.t -> Tuple.t -> unit) ->
  db:Database.t ->
  neg:(Pred.t -> Tuple.t -> bool) ->
  Rule.t list ->
  unit
(** Rounds of full re-evaluation of every rule until no new fact appears.
    Each rule is compiled once under [plan] (default [Plan.config ()]),
    against the cardinalities of [db] at entry, and run through
    {!Plan.run}.
    @raise Limits.Out_of_budget when the guard's budget is exhausted. *)

val applier :
  Counters.t ->
  guard:Limits.guard ->
  profile:Profile.t ->
  neg:(Pred.t -> Tuple.t -> bool) ->
  Plan.config ->
  card:(Pred.t -> int) ->
  ?delta_pos:int ->
  Rule.t ->
  rel_of:(int -> Pred.t -> Relation.t option) ->
  (Pred.t -> Tuple.t -> unit) ->
  unit
(** [applier cnt ~guard ~profile ~neg plan ~card ?delta_pos rule] compiles
    the rule (its [delta_pos] specialization when given) once and returns
    the application every round runs: [rel_of] picks the relation each
    body position reads, and every derived head tuple goes to the emit
    callback.  The one rule-application path of every fixpoint loop. *)

val seminaive :
  Counters.t ->
  ?guard:Limits.guard ->
  ?profile:Profile.t ->
  ?ckpt:Checkpoint.t ->
  ?plan:Plan.config ->
  ?subsume:Subsume.t ->
  ?on_new:(Pred.t -> Tuple.t -> unit) ->
  ?initial_delta:Database.t ->
  db:Database.t ->
  neg:(Pred.t -> Tuple.t -> bool) ->
  ?recursive:Pred.Set.t ->
  Rule.t list ->
  unit
(** Delta-driven evaluation: after a first full round, each subsequent round
    only joins through tuples produced in the previous round — the
    read-only slice of [db] that round inserted ({!Database.since}), so
    nothing may remove from [db] while the loop runs.  [recursive]
    names the predicates to drive with deltas; it defaults to the head
    predicates of the given rules.  Every rule variant (the full one and
    one per delta position) is compiled once under [plan], as in
    {!naive}.

    [initial_delta] warm-starts the loop at a round boundary: [db] must be
    the state after some completed round and [initial_delta] the facts
    that round produced (a resumed checkpoint) — the full first round is
    then skipped.

    An active [subsume] filter ({!Subsume}) may divert an emitted fact
    into its companion relation (counted as [subsumed], not
    [facts_derived]); companion predicates are implicitly added to
    [recursive] so the restoring bridge rules see them through deltas.
    @raise Limits.Out_of_budget when the guard's budget is exhausted. *)

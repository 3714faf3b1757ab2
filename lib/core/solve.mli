(** The query planner and runner — the library's main entry point.

    {[
      let program = Datalog_parser.Parser.program_of_string "
        anc(X, Y) :- parent(X, Y).
        anc(X, Y) :- parent(X, Z), anc(Z, Y).
        parent(ann, bob).  parent(bob, cal).
      " in
      let query = Datalog_parser.Parser.atom_of_string "anc(ann, X)" in
      match Solve.run program query with
      | Ok report -> List.iter print_tuple report.Solve.answers
      | Error e -> prerr_endline (Errors.message e)
    ]} *)

open Datalog_ast
open Datalog_storage

type report = {
  options : Options.t;
  rewritten : Datalog_rewrite.Rewritten.t option;
      (** the rewriting, when a magic-family strategy ran *)
  db : Database.t;
      (** the fully evaluated database.  It may share the EDB relations
          of the {!prepared} program it ran from (see
          {!Database.overlay}): read it, but do not mutate it — a write
          to an EDB predicate would reach every later goal of the same
          prepared program.  Copy it ({!Database.copy}) to modify. *)
  answers : Tuple.t list;
      (** tuples of the query predicate satisfying the goal, in
          {!Tuple.compare} order: symbols first, by interning id (the
          order of first appearance in the process), then ints in numeric
          order, column by column from the first *)
  undefined : Atom.t list;
      (** goal instances with undefined truth value (conditional /
          well-founded evaluation of non-stratified programs) *)
  counters : Datalog_engine.Counters.t;
  profile : Datalog_engine.Profile.t;
      (** per-rule / per-predicate / per-round statistics; the inactive
          {!Datalog_engine.Profile.none} unless [options.profile] (or a
          trace sink) asked for collection *)
  plans : Datalog_engine.Plan.info list;
      (** the compiled join plans the evaluation used, deduplicated, in
          compilation order; empty unless [options.explain], and when the
          query short-circuited to an indexed lookup *)
  evaluator : string;
      (** which fixpoint ran: "seminaive", "naive", "stratified",
          "conditional" or "wellfounded" *)
  status : Datalog_engine.Limits.status;
      (** [Complete] for a full evaluation; [Exhausted reason] when one of
          [options.limits]'s budgets ran out, in which case [answers] is a
          partial (for positive programs: sound but possibly incomplete)
          answer set *)
  wall_time_s : float;
  minor_words : float;
      (** minor-heap words allocated by this evaluation
          ([Gc.minor_words] delta) — the allocation-pressure gauge the
          bench regression gate watches *)
}

val incomplete : report -> bool
(** [true] iff the evaluation stopped on a budget ([status = Exhausted _])
    and the answers may be missing tuples. *)

val run :
  ?options:Options.t ->
  ?resume_from:Datalog_engine.Checkpoint.resume ->
  Program.t ->
  Atom.t ->
  (report, Errors.t) result
(** Evaluate a query.  Validation errors (range restriction), stratification
    errors under [Stratified_only], and unbound negated calls under a
    magic-family strategy are reported as [Error].  Budget exhaustion is
    {e not} an error: the report comes back [Ok] with
    [status = Exhausted _] and whatever answers were derived.

    [resume_from] continues a loaded checkpoint
    ({!Datalog_engine.Checkpoint.load}); the strategy and query must match
    the ones the checkpoint was taken under (the caller supplies the same
    program), and the conditional / well-founded evaluators do not
    support it — both are [Error] otherwise.  A failed checkpoint save
    during evaluation ([options.checkpoint]) is reported as
    [Error (Evaluation _)]. *)

type prepared
(** A program made ready for many goals: its EDB facts are encoded into a
    base database once — built lazily, on the first goal that needs it —
    and every goal evaluates over a {!Database.overlay} of that base, so
    the hash and sorted indexes one goal builds on EDB relations serve
    the goals after it.  A goal adds only its own facts (the program's
    IDB facts, a rewriting's seeds) to relations private to it; the base
    is never written by an evaluation.  The magic-family strategies read
    the {!Preprocess.split_idb_facts} form of the program, which shares
    the same base when the program has no IDB facts. *)

val prepare : Program.t -> prepared

val run_prepared :
  ?options:Options.t ->
  ?resume_from:Datalog_engine.Checkpoint.resume ->
  prepared ->
  Atom.t ->
  (report, Errors.t) result
(** {!run} over a prepared program: [run ?options ?resume_from program q]
    is [run_prepared ?options ?resume_from (prepare program) q], and a
    batch of goals through one [prepared] reports exactly what one
    {!run} per goal would (answers, status, counters, profile rows; only
    timings differ).  A [resume_from] checkpoint taken over a different
    program would merge its facts into the shared base. *)

val run_exn : ?options:Options.t -> Program.t -> Atom.t -> report
(** @raise Failure with {!Errors.message} on [Error].  The only
    raising entry point of the library. *)

val run_many :
  ?options:Options.t ->
  Program.t ->
  Atom.t list ->
  ((Atom.t * Tuple.t list) list, Errors.t) result
(** Answer several queries over the same predicate-and-binding pattern in
    one evaluation: the rewritten program is built once, every query
    contributes its seed fact, and the answers are split per query
    afterwards.  Queries whose predicate or constant positions differ are
    evaluated separately (still within this one call), over one
    {!prepared} program.  Under [Naive] /
    [Seminaive] / [Tabled] the program is simply evaluated once and each
    query filtered from the result. *)

val answer_atoms : Program.t -> Atom.t -> report -> Atom.t list
(** The answers as ground atoms over the source query predicate. *)

val report_json : query:Atom.t -> report -> Datalog_engine.Json.t
(** The report as a schema-stable JSON object (schema_version 8): query,
    strategy/sips/negation, the subsumption-filter flag, evaluator,
    status, answer and undefined counts, wall time, minor-heap allocation, rewritten-program size, the
    compiled-plan block (SIP, per-rule variants and steps), the counter
    totals, and the full
    profile (empty rows unless profiling was on).
    See docs/OBSERVABILITY.md. *)

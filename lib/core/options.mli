(** Query-evaluation options: which rewriting, which SIP strategy, which
    negation semantics. *)

type strategy =
  | Naive  (** no rewriting, naive fixpoint (baseline of baselines) *)
  | Seminaive  (** no rewriting, semi-naive fixpoint *)
  | Magic  (** generalized magic sets, semi-naive evaluation *)
  | Supplementary  (** supplementary magic sets *)
  | Supplementary_idb
      (** supplementary magic cutting only at intensional subgoals — the
          variant isomorphic to Alexander templates *)
  | Alexander  (** Alexander templates *)
  | Tabled
      (** no rewriting: top-down OLDT/QSQR-style tabled evaluation — the
          procedural counterpart of the Alexander rewriting *)

type negation =
  | Auto
      (** stratified evaluation when the (rewritten) program is stratified,
          otherwise the conditional fixpoint *)
  | Stratified_only  (** fail on non-stratified programs *)
  | Conditional  (** always use the conditional fixpoint *)
  | Well_founded  (** alternating fixpoint (answers = well-founded true) *)

type t = {
  strategy : strategy;
  sips : Datalog_analysis.Sips.strategy;
  negation : negation;
  limits : Datalog_engine.Limits.t;
      (** resource budgets for the evaluation; {!Datalog_engine.Limits.none}
          (the default) imposes no bounds and adds no per-tuple overhead *)
  profile : bool;
      (** collect per-rule / per-predicate / per-round statistics
          ({!Datalog_engine.Profile}); off by default, zero overhead when
          off *)
  trace : (string -> unit) option;
      (** per-round derivation trace sink (one line per fixpoint round /
          stratum / alternation); [Some _] implies profiling *)
  checkpoint : Datalog_engine.Checkpoint.t;
      (** checkpointed evaluation ({!Datalog_engine.Checkpoint});
          {!Datalog_engine.Checkpoint.none} (the default) saves nothing
          and adds no overhead.  Honored by the fixpoint-based strategies
          and the tabled engine; the conditional and well-founded
          evaluators do not checkpoint. *)
  merge : bool;
      (** fuse adjacent scan+probe plan steps into galloping merge joins
          over sorted columnar projections ({!Datalog_engine.Plan});
          on by default.  Merge plans produce identical answers and fact
          counters to hash plans; [probes] drops and
          [merge_steps]/[gallops] appear *)
  explain : bool;
      (** collect the compiled plans into {!Solve.report.plans} (and the
          [plan] block of {!Solve.report_json}) *)
  subsume : bool;
      (** apply the adornment-lattice subsumption filter
          ({!Datalog_engine.Subsume}) to the magic-family strategies: a
          magic/problem fact whose strictly-more-general call is already
          present is diverted into a companion relation, and bridge rules
          restore its answers from the general call's — identical
          answers, fewer [facts_derived]/[probes], a [subsumed] counter.
          On by default ([--no-subsume] ablates); no effect on
          [Naive]/[Seminaive]/[Tabled] or on programs where no two
          adornments of a predicate are comparable *)
}

val default : t
(** [Alexander] strategy, left-to-right SIP, [Auto] negation, no limits,
    no profiling, no trace, no checkpoint, merge joins on, explain off,
    subsumption filter on. *)

val strategy_name : strategy -> string
val strategy_of_string : string -> strategy option
val negation_name : negation -> string
val negation_of_string : string -> negation option
val all_strategies : strategy list

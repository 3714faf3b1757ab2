(** Runtime adornment-lattice subsumption filter.

    A rewriting (magic, supplementary, supplementary-idb, Alexander) may
    declare that a magic/problem predicate's facts are comparable to
    those of a strictly more general predicate of the same source: when
    the general relation already contains the projection of a freshly
    derived specific fact, the general call was already asked and its
    answers cover the specific call's, so the specific fact can be
    dropped.  The drop is diverted into a companion relation the
    rewriting's bridge rules join against, restoring exactly the dropped
    calls' answers — identical answer sets, fewer derived facts and
    probes.

    The filter is consulted at the evaluators' emit sites
    ({!Fixpoint.naive}/{!Fixpoint.seminaive}); a [drop] decision reads
    only the general relations, which a single rule application never
    mutates, so interpreted and compiled evaluation make identical
    decisions. *)

open Datalog_ast
open Datalog_storage

type t

val none : t
(** The inactive filter: {!drop} always returns [None], zero overhead. *)

val is_active : t -> bool

val make : (Pred.t * (Pred.t * int array) list * Pred.t) list -> t
(** [make [(specific, generals, companion); ...]]: each [specific]
    predicate is checked against its [generals] — [(general, proj)]
    where [proj.(i)] is the index within the specific tuple of the
    general's [i]-th argument — and dropped facts are recorded under
    [companion] (same arity as [specific]).  [make [] = none]. *)

val drop : t -> Database.t -> Pred.t -> Tuple.t -> Pred.t option
(** [drop t db pred tuple] is [Some companion] when the fact should be
    diverted into the companion relation instead of [pred], [None] when
    it must be inserted normally. *)

val companions : t -> Pred.Set.t
(** All companion predicates — the seminaive evaluator treats them as
    recursive so bridge rules see companion facts through their delta. *)

(** Databases: a mutable map from predicates to relations. *)

open Datalog_ast

type t

val create : unit -> t

val of_groups : (Pred.t * Atom.t list) list -> t
(** Seed a database from ground atoms grouped by predicate, each
    predicate in one group ({!Datalog_ast.Program.fact_groups}): one
    relation per group, created in group order with room for the group's
    facts and filled in list order, with no per-fact predicate lookup. *)

val of_facts : Atom.t list -> t
(** Seed a database from ground atoms: {!of_groups} over their groups.
    @raise Invalid_argument on a non-ground atom. *)

val rel : t -> Pred.t -> Relation.t
(** The relation for a predicate, created empty on first access. *)

val find : t -> Pred.t -> Relation.t option
(** The relation if one exists (no creation). *)

val add_atom : t -> Atom.t -> bool
(** Insert a ground atom; returns [true] iff new. *)

val add : t -> Pred.t -> Tuple.t -> bool

val remove : t -> Pred.t -> Tuple.t -> bool
val remove_atom : t -> Atom.t -> bool
(** Delete a tuple / ground atom; [true] iff it was present. *)

val mem_atom : t -> Atom.t -> bool
val mem : t -> Pred.t -> Tuple.t -> bool

val preds : t -> Pred.t list
(** Predicates that currently have a (possibly empty) relation. *)

val cardinal : t -> Pred.t -> int
val total_facts : t -> int

val copy : t -> t

val overlay : ?hide:(Pred.t -> bool) -> t -> t
(** [overlay base] is a fresh predicate-to-relation table whose entries
    {e alias} [base]'s relations: every predicate [base] has shares its
    [Relation.t] (tuples and any hash or sorted indexes built on it),
    while a predicate first reached through the overlay ({!rel}, {!add})
    gets a relation private to the overlay.  Costs one table copy, not a
    tuple copy.  A predicate satisfying [hide] is left out: the overlay
    neither sees nor writes [base]'s relation for it.

    Aliasing contract: writing a predicate the base already has writes
    the base.  An overlay is meant for evaluations that only {e read} the
    base's predicates — e.g. a rewritten program whose rule heads are all
    new predicates — and everything the evaluation derives stays private
    to it. *)

val assign : t -> from:t -> unit
(** [assign db ~from] replaces the contents of [db] with a copy of
    [from]'s, in place — the rollback half of a [copy]-backed
    transaction.  Aliased references to [db]'s relations must be
    re-fetched afterwards. *)

type marks
(** Per predicate, an insertion-order position ({!Relation.mark}). *)

val marks : t -> marks
(** [marks db] marks where every relation of [db] currently ends. *)

val since : t -> marks -> t
(** [since db m] is, for every predicate that gained a tuple after [m]
    (a predicate [m] does not know counts from position 0), the
    read-only {!Relation.since} slice of its relation.  Predicates with
    nothing new are absent, as from a database the new tuples had been
    inserted into.  This is a semi-naive delta without a second copy of
    its tuples: valid while [db] stays insert-only after [m]; writing
    through the result raises [Invalid_argument]. *)

val union_into : src:t -> dst:t -> int
(** Insert every tuple of [src] into [dst]; returns how many were new. *)

val adopt : src:t -> dst:t -> unit
(** [adopt ~src ~dst] gives [dst] every tuple of [src] without copying
    what it need not: a predicate [dst] lacks takes [src]'s relation
    itself, and one [dst] has keeps its relation when that already holds
    [src]'s tuples and otherwise gets a fresh copy holding both.  No
    relation [dst] had before is written, so an {!overlay}'s base stays
    untouched.  The adopted relations are shared afterwards: [src] is
    the caller's to give away. *)

val tuples : t -> Pred.t -> Tuple.t list

val iter : (Pred.t -> Relation.t -> unit) -> t -> unit

val pp : Format.formatter -> t -> unit
(** Prints every stored fact as [p(c1, ..., cn).], grouped by predicate. *)

(** Programs: a set of rules plus a set of ground facts (the EDB).

    A predicate is {e intensional} (IDB) if it appears in some rule head,
    and {e extensional} (EDB) otherwise.  Facts may also be stated for IDB
    predicates; evaluation seeds them into the fixpoint.

    {!make} groups the facts by predicate once, in one pass
    ({!fact_groups}); loading a database, counting facts per predicate
    and splitting IDB from EDB facts read the groups instead of walking
    and hashing every fact again. *)

type t

val make : ?facts:Atom.t list -> Rule.t list -> t
(** @raise Invalid_argument if a fact atom is not ground. *)

val empty : t

val rules : t -> Rule.t list
val facts : t -> Atom.t list

val fact_groups : t -> (Pred.t * Atom.t list) list
(** The facts grouped by predicate: one group per predicate with a fact,
    in the order of the predicates' first facts, each holding its facts
    in program order.  Every fact of {!facts} is in exactly one group. *)

val add_rule : t -> Rule.t -> t
val add_fact : t -> Atom.t -> t
val union : t -> t -> t

val preds : t -> Pred.Set.t
(** Every predicate occurring anywhere in the program. *)

val idb : t -> Pred.Set.t
(** Predicates defined by at least one rule. *)

val edb : t -> Pred.Set.t
(** Predicates occurring only in rule bodies or facts. *)

val is_idb : t -> Pred.t -> bool

val rules_for : t -> Pred.t -> Rule.t list
(** The rules whose head predicate is the given one, in program order. *)

val facts_for : t -> Pred.t -> Atom.t list

val num_rules : t -> int
val num_facts : t -> int

val pp : Format.formatter -> t -> unit
(** Prints the rules, then the facts, one clause per line. *)

val pp_rules : Format.formatter -> t -> unit

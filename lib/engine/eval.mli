(** Coded binding environments and the rule-evaluation helpers built on
    them.

    {!Cenv} is the environment of {!Tabled}'s interpreter (and of the
    test suite's left-to-right interpreter, the differential oracle of
    {!Plan.run}); the fixpoint engines and {!Provenance} apply rules
    through {!Plan} and use only {!db_rel_of} and {!closed_world_neg}
    from here.  Environments hold {!Datalog_ast.Code} ints; values are
    decoded only to build error messages. *)

open Datalog_ast
open Datalog_storage

exception Unsafe_rule of string
(** Raised when evaluation meets a negative literal or comparison with
    unbound variables, or derives a non-ground head: the rule violates the
    ordered safety condition (see {!Datalog_analysis.Safety}). *)

(** Variable bindings in coded space, with the same binding-chain
    semantics as {!Datalog_ast.Subst} (restricted to the evaluator
    discipline of only ever binding chain-end unbound variables). *)
module Cenv : sig
  type t

  val empty : t

  type resolved =
    | Bound of Code.t
    | Free of string  (** the chain-end variable name *)

  val resolve_term : t -> Term.t -> resolved

  val bind : string -> Code.t -> t -> t
  (** [bind v c env] — [v] must be a chain-end unbound variable. *)

  val alias : string -> string -> t -> t
  (** [alias v w env] — both chain-end, distinct, unbound. *)

  val apply_atom : t -> Atom.t -> Atom.t
  (** Decoding boundary: the atom with bound variables replaced by their
      (decoded) constants and free variables by their chain-end names. *)
end

val term_of_resolved : Cenv.resolved -> Term.t
(** [Bound c] decodes to a constant, [Free w] to the variable [w] (error
    messages). *)

val bound_positions : Cenv.t -> Atom.t -> (int * Code.t) list
(** The argument positions of the atom that are ground under the
    environment, with their codes — the index constraints a lookup can
    use. *)

val ground_tuple : Cenv.t -> Atom.t -> Tuple.t
(** The atom's ground tuple under the environment; raises {!Unsafe_rule}
    ("negative literal ... not ground") on a free argument. *)

val match_tuple : Cenv.t -> Atom.t -> Tuple.t -> Cenv.t option
(** Extend the environment so the atom matches the tuple ([None] on a
    constant clash or an inconsistent repeated variable). *)

val db_rel_of : Database.t -> int -> Pred.t -> Relation.t option
(** The ordinary [rel_of]: every position reads the database. *)

val closed_world_neg : Database.t -> Pred.t -> Tuple.t -> bool
(** [not mem]: the negated tuple holds iff absent from the database. *)

(** Rule-body evaluation: index-backed nested-loop join with backtracking.

    The body solver of {!Provenance}, and the binding helpers of
    {!Tabled}'s interpreter; the fixpoint engines apply rules through
    {!Plan}.  A body is solved left to right under a coded binding
    environment ({!Cenv}); positive literals enumerate matching tuples
    through {!Datalog_storage.Relation.select} (which uses a hash index
    on the bound columns), negative literals test the absence of the —
    by then ground — tuple, and comparisons filter (or, for [=] with one
    unbound side, bind).  Environments hold {!Datalog_ast.Code} ints;
    values are decoded only to build error messages and provenance
    substitutions. *)

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

  val resolve : t -> string -> resolved
  val resolve_term : t -> Term.t -> resolved

  val bind : string -> Code.t -> t -> t
  (** [bind v c env] — [v] must be a chain-end unbound variable. *)

  val alias : string -> string -> t -> t
  (** [alias v w env] — both chain-end, distinct, unbound. *)

  val term_of : t -> Term.t -> Term.t
  (** Decoding boundary: the term with bound variables replaced by their
      (decoded) constants and free variables by their chain-end names. *)

  val apply_atom : t -> Atom.t -> Atom.t

  val to_subst : t -> Subst.t
  (** Decoding boundary (provenance): the equivalent substitution. *)
end

val term_of_resolved : Cenv.resolved -> Term.t
(** [Bound c] decodes to a constant, [Free w] to the variable [w] (error
    messages). *)

val solve_body :
  Counters.t ->
  ?guard:Limits.guard ->
  ?profile:Profile.t ->
  rel_of:(int -> Pred.t -> Relation.t option) ->
  neg:(Pred.t -> Tuple.t -> bool) ->
  Literal.t list ->
  Cenv.t ->
  (Cenv.t -> unit) ->
  unit
(** [solve_body cnt ~rel_of ~neg body env emit] calls [emit] once per
    environment extending [env] that satisfies [body].  [rel_of i pred]
    supplies the relation scanned by the positive literal at body position
    [i] ([None] = empty) — semi-naive evaluation substitutes a delta
    relation at one position.  [neg pred tuple] decides ground negated
    atoms.  [guard] is consulted once per candidate tuple, so even a join
    that derives nothing stays interruptible; it may raise
    {!Limits.Out_of_budget}.  An active [profile] records one
    per-predicate probe (with its scan width) per positive-literal
    lookup. *)

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

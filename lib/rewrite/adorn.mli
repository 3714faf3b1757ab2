(** The adornment transformation.

    Starting from a query, predicates are specialised by binding pattern:
    [p__bf] is the version of [p/2] called with its first argument bound.
    Rule bodies are ordered by the SIP strategy, and every intensional body
    atom is replaced by its adorned version, queueing that
    (predicate, binding) pair for processing.  Only (pred, binding) pairs
    reachable from the query are produced. *)

open Datalog_ast

type adorned_rule = {
  index : int;  (** position in the adorned program (stable across runs) *)
  source : Rule.t;  (** the original rule *)
  head : Atom.t;  (** head over the adorned predicate *)
  head_binding : Binding.t;
  source_pred : Pred.t;  (** original head predicate *)
  body : Literal.t list;
      (** SIP-ordered; intensional atoms carry adorned predicates *)
}

type t = {
  rules : adorned_rule list;
  query : Atom.t;  (** the original query goal *)
  query_pred : Pred.t;  (** adorned predicate of the query *)
  query_binding : Binding.t;
  registry : Registry.t;
  source_program : Program.t;
}

exception Unbound_negation of Atom.t
(** Raised when a negated intensional atom still has free variables at its
    position in the SIP order; magic-style rewritings require negated calls
    to be fully bound. *)

val adorned_pred : Pred.t -> Binding.t -> Pred.t
(** The (deterministic) adorned name, e.g. [anc__bf]. *)

val fact_card : Program.t -> Pred.t -> int
(** The program's explicit facts counted per predicate (duplicates
    included) — the default cardinality estimate of {!adorn}.  Partially
    applied, it counts once and answers from the table. *)

val adorn :
  ?strategy:Sips.strategy -> ?card:(Pred.t -> int) -> Program.t -> Atom.t -> t
(** [adorn program query] runs the transformation from the binding pattern
    the query's constants induce.  [card] supplies relation-cardinality
    estimates to the {!Sips.Cost_aware} strategy (default:
    [fact_card program]).  @raise Unbound_negation *)

val rules_as_program : t -> Program.t
(** The adorned rules as a plain program (queries over it must use the
    adorned predicate names). *)

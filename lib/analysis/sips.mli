(** Sideways information passing: the one definition of the order in which
    a rule body is evaluated, given the variables bound on entry.

    Every consumer of a body order reads it from here: the three
    rewritings (generalized magic, supplementary magic, Alexander
    templates) through {!Datalog_rewrite.Adorn}, the compiled join plans
    of {!Datalog_engine.Plan} (cost SIP, tabled calls, the conditional
    engine), and the safety repair {!Safety.cdi_order}.  Seki's
    equivalence theorem compares the rewritings under a common SIP; one
    orderer makes that common SIP a fact of the code. *)

open Datalog_ast

type strategy =
  | Ltr
      (** keep the positive literals as written (negations and
          comparisons are still postponed until their variables are
          bound) *)
  | Cost
      (** repeatedly pick the positive literal sharing the most variables
          with the bound set; ties go to more constant arguments, then the
          smaller estimated relation (as supplied through [?card]), then
          textual order *)

val strategy_name : strategy -> string
val strategy_of_string : string -> strategy option

module SSet : Set.S with type elt = string
(** Sets of bound variables. *)

val ready : SSet.t -> Literal.t -> bool
(** A literal can be evaluated under [bound]: positive atoms always; a
    negation once ground; a comparison once both sides are (one side
    suffices for [=]). *)

val bind : SSet.t -> Literal.t -> SSet.t
(** The variables bound after evaluating the literal: a positive atom
    binds its variables, [=] binds both sides, other literals bind
    nothing. *)

val order :
  ?card:(Pred.t -> int) ->
  ?first:int ->
  bound:(string -> bool) ->
  strategy ->
  Literal.t list ->
  (int * Literal.t) list
(** Reorder a body, returning each literal with its original position.
    [bound] says which variables are bound on entry (e.g. a call's bound
    head variables); [first] forces the literal at that position to the
    front (the semi-naive delta literal); [card] estimates relation
    cardinalities for {!Cost} (default: constant 0).  Negative literals
    and comparisons are emitted as soon as they are {!ready} (preserving
    their relative order); when none is ready, the strategy picks the
    next positive literal.  Any literal that never becomes ready is
    appended at the end, where the safety check rejects it. *)

(** Compiled join plans: one-time, per-rule compilation of rule bodies.

    A plan fixes the literal order (the body as given, or
    {!Datalog_analysis.Sips.order}'s cost order from the variables bound
    on entry), numbers the rule's variables
    into a flat {!Datalog_ast.Code.t} (int) register file (replacing the
    persistent-map {!Datalog_ast.Subst} on the hot path), and pre-resolves a
    {!Datalog_storage.Relation.access} index handle for every positive
    literal's statically-bound column set.  Boundness is static because
    every evaluator starts rule applications from the empty substitution.

    {!run} is the only join executor the fixpoint engines and
    {!Provenance} use.  It is counter-for-counter equivalent to
    interpreting the same rule left to right over binding environments;
    that interpreter is the test suite's differential oracle ([Interp],
    in [test/interp.ml]).

    The representation is exposed so that the tabled engine (whose
    [Table] ops read call tables, not relations) can drive the ops with
    its own executor.  Both executors raise the same {!Unsafe_rule}
    errors. *)

open Datalog_ast
open Datalog_storage

type sip = Datalog_analysis.Sips.strategy = Ltr | Cost
(** The body order of a plan, decided by {!Datalog_analysis.Sips}: under
    [Ltr] the body as given (the rewriter or [Preprocess] already ordered
    it), under [Cost] {!Datalog_analysis.Sips.order}'s cost order. *)

type src =
  | Sconst of Code.t
  | Sreg of int  (** statically bound register *)
  | Sunbound of int
      (** statically unbound register; only in failing ops and unsafe
          heads, never read for a value *)

type action =
  | Store of int  (** first occurrence of an unbound variable *)
  | Check of int  (** repeated variable or already-bound register *)
  | Match of Code.t  (** constant (full-scan residuals only) *)

type op =
  | Probe of {
      lit_pos : int;  (** original body position, the [rel_of] key *)
      pred : Pred.t;
      cols : int array;
      access : Relation.access;
      key : src array;
      out : (int * action) array;
    }
  | Scan of { lit_pos : int; pred : Pred.t; out : (int * action) array }
  | Mergejoin of {
      l_lit_pos : int;
      l_pred : Pred.t;
      l_out : (int * action) array;
      r_lit_pos : int;
      r_pred : Pred.t;
      r_cols : int array;
      r_sorted : Relation.sorted_access;
      r_key : src array;
      r_out : (int * action) array;
    }
      (** a fused [Scan]+[Probe] pair executed as a galloping merge join
          against the probed relation's sorted columnar projection;
          trace-identical to the unfused pair except [probes] counts 2
          per execution instead of [1 + |scan|].  Emitted by {!compile}
          (never {!compile_call}) when the probed side is frozen for the
          duration of a rule application. *)
  | Table of {
      lit_pos : int;
      pred : Pred.t;
      key : (int * src) array;
      out : (int * action) array;
    }
  | Negtest of { pred : Pred.t; args : src array }
  | Cmptest of { cmp : Literal.cmp; lhs : src; rhs : src }
  | Assign of { reg : int; value : src }
  | Unsafe_neg of { pred : Pred.t; args : src array }
  | Unsafe_cmp of { cmp : Literal.cmp; lhs : src; rhs : src }

exception Unsafe_rule of string
(** Raised when evaluation meets a negative literal or comparison with
    unbound variables, or derives a non-ground head: the rule violates the
    ordered safety condition (see {!Datalog_analysis.Safety}). *)

type variant = Full | Delta of int | Call of string

type t = {
  rule : Rule.t;
  variant : variant;
  sip : sip;
  order : int list;  (** chosen literal order, as original positions *)
  nregs : int;
  names : string array;  (** register -> variable display name *)
  ops : op array;
  head_pred : Pred.t;
  head : src array;
  head_safe : bool;
}

type info = {
  i_rule : string;
  i_variant : string;
  i_sip : string;
  i_order : int list;
  i_steps : string list;
}

type config = {
  sip : sip;
  merge : bool;  (** fuse scan+probe pairs into merge joins *)
  on_compile : (info -> unit) option;
      (** receives the {!info} of every plan compiled and every body
          reordered; with [None] no description is built *)
}

val config :
  ?sip:sip -> ?merge:bool -> ?on_compile:(info -> unit) -> unit -> config
(** [merge] defaults to [true]; no [on_compile] leaves it [None]. *)

val compile : config -> card:(Pred.t -> int) -> ?delta_pos:int -> Rule.t -> t
(** Compile a rule for the fixpoint-family evaluators.  [card] supplies
    relation cardinalities to the cost SIP; [delta_pos] compiles the
    semi-naive specialization whose literal at that original body position
    reads the delta (under the cost SIP it is ordered first). *)

val compile_call :
  config ->
  card:(Pred.t -> int) ->
  is_idb:(Pred.t -> bool) ->
  bound_prefix:int list ->
  Rule.t ->
  (int * action) array * t
(** Compile a rule for tabled evaluation of calls whose bound head
    positions are [bound_prefix] (ascending).  The returned init steps
    bind or check one register per bound position against the call's
    values, in order; IDB body literals compile to {!Table} ops.  Under
    [Cost] the body is ordered with the variables of the bound head
    positions bound on entry. *)

val reorder : config -> card:(Pred.t -> int) -> Rule.t -> Rule.t
(** Reorder a rule body under the configured SIP without compiling it
    (used by the conditional engine, which keeps its condition-set
    interpreter). Identity under [Ltr]. *)

val info : t -> info

val run :
  t ->
  Counters.t ->
  ?guard:Limits.guard ->
  ?profile:Profile.t ->
  rel_of:(int -> Pred.t -> Relation.t option) ->
  neg:(Pred.t -> Tuple.t -> bool) ->
  (Pred.t -> Tuple.t -> unit) ->
  unit
(** Run the plan for one rule application; equivalent to interpreting
    the rule left to right (same emissions, same counter increments, same
    unsafe-rule errors as the test suite's [Interp]).
    @raise Invalid_argument on plans containing {!Table} ops. *)

(** {2 Building blocks for engine-specific executors} *)

val src_value : Code.t array -> src -> Code.t

val values : Code.t array -> src array -> Code.t array
(** [values regs srcs] is [Array.map (src_value regs) srcs], built
    without a closure. *)

val match_out : Code.t array -> (int * action) array -> Tuple.t -> bool
val make_regs : t -> Code.t array
val raise_unsafe_neg : t -> Code.t array -> Pred.t -> src array -> 'a
val raise_unsafe_cmp :
  t -> Code.t array -> Literal.cmp -> src -> src -> 'a
val raise_unsafe_head : t -> Code.t array -> 'a

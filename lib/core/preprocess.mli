(** Program normalisations applied before rewriting. *)

open Datalog_ast

val split_idb_facts : Program.t -> Program.t
(** Rewriting strategies assume facts live in extensional predicates.  Any
    fact over an intensional predicate [p] is moved to a fresh predicate
    [p_base] (with its facts) and a bridging rule [p(X...) :- p_base(X...)]
    is added, so the adorned versions of [p] still see it.  Programs
    without IDB facts are returned unchanged. *)

val reorder_bodies : Program.t -> Program.t
(** Apply {!Datalog_analysis.Safety.cdi_order} to every rule: reorder
    each rule that is not already cdi and can be fixed by reordering
    (rules that cannot are left untouched for the safety check to
    report). *)

val prune_unreachable : Program.t -> Atom.t -> Program.t
(** Drop every rule and fact whose predicate the query predicate does not
    (transitively) depend on — a cheap static under-approximation of what
    the magic rewritings do dynamically. *)

val dedup_rules : Program.t -> Program.t
(** Remove syntactically identical duplicate rules and facts (keeping
    first occurrences). *)

val add_domain_guards : ?guard_all:bool -> Program.t -> Program.t
(** The CPC-style evaluation that constructive domain independence makes
    unnecessary: a fresh unary [dom] predicate is defined by one projection
    rule per argument position of every predicate (the domain axioms), and
    rule bodies are prefixed with [dom(X)] guards — for every variable when
    [guard_all] is [true] (the default, the naive "range over the domain"
    reading), or only for variables no positive literal limits otherwise.
    Used by the F4 ablation benchmark to measure what the cdi discipline
    saves. *)

val unfold : ?protect:Datalog_ast.Pred.t list -> Program.t -> Program.t
(** Partial evaluation: a non-recursive intensional predicate defined by
    exactly one rule is inlined at its positive occurrences, and its
    definition dropped once nothing else references it.  Predicates in
    [protect] (e.g. the query predicate) and predicates with negated
    occurrences are never eliminated.  Iterates to a fixpoint; answers
    are preserved (checked by the test-suite on random programs). *)

(** The Seki equivalence checker.

    Seki (PODS '89) proved that, under a common sideways-information-passing
    strategy, the Alexander templates rewriting and the supplementary magic
    sets rewriting are equally powerful: bottom-up evaluation derives the
    same call set ([call_p^a] vs [m_p^a]), the same answer set ([ans_p^a]
    vs [p^a]) for every adorned predicate, and the same intermediate join
    states (continuations vs the supplementary relations at intensional
    cut points).

    This module runs both rewritings (and the IDB-cut supplementary
    variant) on a program and query through {!Solve.run_prepared}, with
    the subsumption filter off, and compares the corresponding relations
    {e tuple by tuple} (after the renaming bijection), not just by
    cardinality. *)

open Datalog_ast

type row = {
  source_pred : Pred.t;
  binding : string;  (** adornment, e.g. "bf" *)
  calls_alexander : int;  (** |call_p^a| *)
  calls_magic : int;  (** |m_p^a| *)
  answers_alexander : int;  (** |ans_p^a| *)
  answers_magic : int;  (** |p^a| *)
  calls_equal : bool;  (** tuple-level equality of the call relations *)
  answers_equal : bool;
}

type cont_row = {
  rule_index : int;  (** adorned-rule index *)
  subgoal : int;  (** ordinal of the intensional subgoal (1-based) *)
  cont_alexander : int;  (** |cont_r_j| *)
  sup_idb : int;  (** |supi_r_j| of the IDB-cut supplementary variant *)
  cont_equal : bool;  (** tuple-level equality *)
}

type outcome = {
  rows : row list;  (** one row per reachable (predicate, adornment) *)
  cont_rows : cont_row list;
      (** one row per continuation: Alexander vs IDB-cut supplementary —
          Seki's equivalence down to the intermediate join states *)
  equivalent : bool;  (** all rows equal on calls and answers *)
  conts_equivalent : bool;  (** all continuation rows equal *)
  answers_match_query : bool;
      (** both rewritings return the same query answers *)
}

val check :
  ?sips:Datalog_analysis.Sips.strategy ->
  Program.t ->
  Atom.t ->
  (outcome, string) result
(** Run supplementary magic and Alexander templates on the same adorned
    program and compare.  [Error] carries {!Solve.run}'s message.  A
    query over an extensional or unknown predicate is answered by lookup
    and yields no rows. *)

val pp_outcome : Format.formatter -> outcome -> unit

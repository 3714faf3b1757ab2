(** Safety conditions on rules.

    Two related notions are checked:

    - {e range restriction} (order-insensitive): every variable of the head,
      of a negative literal, and of a comparison must be {e limited} — bound
      by some positive body atom or by an [=] chain to a constant or limited
      variable.  This guarantees finite, domain-independent answers.

    - {e cdi} — constructive domain independence (order-sensitive): reading
      the body left to right, each negative literal and each comparison must
      be fully bound by the literals {e before} it (ordered conjunction).
      This is the condition under which bottom-up evaluation never consults
      the domain predicates. *)

open Datalog_ast

val limited_vars : Rule.t -> string list
(** Variables limited by positive atoms or [=] propagation, sorted. *)

val range_restricted : Rule.t -> (unit, string) result
(** Check range restriction; the error names an offending variable. *)

val cdi : Rule.t -> (unit, string) result
(** Check the ordered (left-to-right) condition. *)

val reorder_for_cdi : Rule.t -> Rule.t option
(** Greedily reorder the body so the rule becomes cdi, preserving the
    relative order of positive atoms; [None] when impossible (the rule is
    not range-restricted). *)

val cdi_order : Rule.t -> Rule.t
(** The body order a rule is evaluated in: the rule itself when it is
    cdi, else its {!reorder_for_cdi} when one exists, else itself (for
    the safety check to report). *)

val check_program : Program.t -> (unit, string list) result
(** Range restriction of every rule; errors name the offending rules. *)

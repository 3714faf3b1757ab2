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
      the domain predicates.  What "bound" means, and the order a rule is
      repaired into, come from {!Sips} ({!Sips.ready}, {!Sips.bind},
      {!Sips.order}), the same definitions the rewritings and the join
      plans use. *)

open Datalog_ast

val limited_vars : Rule.t -> string list
(** Variables limited by positive atoms or [=] propagation, sorted. *)

val range_restricted : Rule.t -> (unit, string) result
(** Check range restriction; the error names an offending variable. *)

val cdi : Rule.t -> (unit, string) result
(** Check the ordered (left-to-right) condition. *)

val cdi_order : Rule.t -> Rule.t
(** The body order a rule is evaluated in: the rule itself when it is
    cdi, else its {!Sips.order} under {!Sips.Ltr} (positive atoms as
    written, each filter as soon as it is bound) when that order is cdi,
    else the rule itself (for the safety check to report). *)

val check_program : Program.t -> (unit, string list) result
(** Range restriction of every rule; errors name the offending rules. *)

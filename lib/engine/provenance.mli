(** Proof-tree extraction (why-provenance).

    Proofs in the sense of the constructive proof theory: a ground atom is
    proved either because it is a given fact, or by a rule instance whose
    positive premises are proved in turn and whose negative premises are
    {e absent} from the (already computed) model.

    [explain] saturates the program once with the engine that computes
    its model ({!Stratified.run}: compiled plans, semi-naive rounds),
    numbering every derived fact in the order the engine inserted it.  A
    derived fact is then justified by the first instance of a rule
    concluding it whose positive premises were all inserted {e before}
    it; one always exists, since the instance the engine fired when it
    inserted the fact is such an instance.  Negative premises hold in the
    final model because a stratum only negates complete lower strata.
    Premises therefore carry strictly smaller numbers than their
    conclusion, so the proofs are well-founded (no atom repeats along a
    root-to-leaf path) and each atom's justification is searched once.
    Insertion order, not round number, is what decreases: a semi-naive
    round reads facts that the same round has already inserted. *)

open Datalog_ast

type proof =
  | Fact of Atom.t  (** a fact of the program (EDB or given) *)
  | Derived of {
      conclusion : Atom.t;
      rule : Rule.t;  (** the source rule used *)
      subst : Subst.t;  (** its grounding substitution *)
      premises : premise list;  (** one per body literal, in order *)
    }

and premise =
  | Proved of proof  (** a positive premise with its own proof *)
  | Absent of Atom.t  (** a negative premise: the atom is not in the model *)
  | Holds of Literal.t  (** a ground comparison that evaluates to true *)

val explain :
  ?max_depth:int -> Program.t -> Atom.t -> (proof option, string) result
(** [explain program atom] builds a proof of the ground [atom]: [Ok None]
    when the atom is not in the program's model.  [Error _] when the
    program is unsafe (the messages of
    {!Datalog_analysis.Safety.check_program}), is not stratified (the
    message of {!Stratified.run}), or when the proof found is higher than
    [max_depth] (default 10_000).
    @raise Invalid_argument if [atom] is not ground. *)

val depth : proof -> int
(** Height of the proof tree (a fact has depth 1). *)

val size : proof -> int
(** Number of nodes (facts + rule applications). *)

val conclusion : proof -> Atom.t

val pp : Format.formatter -> proof -> unit
(** Indented tree rendering. *)

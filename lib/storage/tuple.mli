(** Ground tuples: arrays of one-word codes, the rows stored in relations.

    A tuple is an [int array] of {!Datalog_ast.Code.t}; equality, hashing
    and index probes are word-wise integer operations with no value
    boxing.  {!encode}/{!decode} convert at the boundaries. *)

open Datalog_ast

type t = Code.t array

val equal : t -> t -> bool

val compare : t -> t -> int
(** Lexicographic in the {e decoded} value order ({!Code.compare_values}),
    so sorted tuple listings are stable across processes. *)

val sort : t array -> unit
(** Sort in place into exactly the order of [Array.stable_sort compare]:
    symbols first, by interning id, then ints numerically.  Arrays of
    a few hundred tuples or more, of one arity and without dictionary
    ints ({!Code}), take a stable LSD radix sort, in linear time for a
    bounded key range: each column costs one counting pass per digit of
    its key range (the span from its least to its greatest value, a
    symbol's value being [min_int + id]), a digit being at most 11 bits
    and at most about [log2] of the array's length.  Other arrays take
    [Array.stable_sort compare]. *)

val compare_codes : int array -> t -> t -> int
(** [compare_codes cols a b] compares the raw codes of [a] and [b] at
    [cols], lexicographically as ints: a fast total order that is not the
    decoded value order ({!Code.compare}). *)

val sort_by_codes : int array -> t array -> unit
(** [sort_by_codes cols a] sorts [a] in place into exactly the order of
    [Array.stable_sort (compare_codes cols)], the order of a relation's
    sorted projections.  It takes the radix sort of {!sort} over raw codes,
    which any code has, so it is linear for a bounded key range; arrays
    of a handful of tuples are sorted by insertion. *)

val hash : t -> int
(** Allocation-free, and well spread in its low bits.  [Hashtbl] keeps a
    power-of-two number of buckets and indexes them by the low bits of the
    hash alone, while the codes of a relation are often regular: the tuples
    [(2i+1, 2(i+d)+1)] of one closure round differ by multiples of 64 under
    a plain [h*31 + code] combine, and so share one bucket of a 64-slot
    table.  The hash therefore combines with a large odd multiplier and
    ends in a finaliser (an odd-constant multiply, then an xor-shift that
    folds the high bits back into the low ones). *)

val encode : Value.t array -> t
val decode : t -> Value.t array

val of_atom : Atom.t -> t
(** @raise Invalid_argument if the atom is not ground. *)

val to_atom : Pred.t -> t -> Atom.t
(** Decode a stored tuple back to a ground atom (boundary only). *)

type pattern = private {
  arity : int;
  consts : (int * Code.t) list;  (** constant positions and their codes *)
  repeats : (int * int) list;
      (** [(i, j)], [i < j]: a variable at [j] already occurs at [i] *)
}
(** The argument pattern of an atom, compiled once for many tuples. *)

val pattern : Atom.t -> pattern

val filter : pattern -> t list -> t list
(** The tuples of the pattern's arity whose columns coincide with its
    constants and whose repeated variables take equal values; the list
    itself when the pattern's arguments are pairwise-distinct variables. *)

val matches : Atom.t -> t -> bool
(** [matches pattern t] — does [t] match the argument pattern of
    [pattern]?  Constants must coincide and repeated variables must take
    equal values; the predicate of [pattern] is not consulted.  The
    pattern is compiled when [matches pattern] is applied, so a partial
    application serves a whole list. *)

val project : int array -> t -> t
(** [project cols t] extracts the listed columns, in order. *)

val add_atom : Buffer.t -> Pred.t -> t -> unit
(** [add_atom buf pred t] appends the ground atom [pred(v1, v2, ...)]
    straight from the codes, byte-identical to {!Atom.pp} of
    [to_atom pred t] (just [pred] at arity 0). *)

val pp : Format.formatter -> t -> unit

module Tbl : Hashtbl.S with type key = t
module Set : Set.S with type elt = t

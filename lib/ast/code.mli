(** Dictionary-encoded ground values: one immutable [int] per value.

    Every hot-path structure of the runtime (tuples, relation index keys,
    plan registers, evaluator bindings) holds codes instead of boxed
    {!Value.t}; decoding back to [Value.t] happens only at boundaries
    (parsing, answer printing, JSON stats, provenance, snapshots).

    Encoding: a symbol becomes its interned id doubled (even, non-negative);
    an int [i] with [min_int/2 <= i <= max_int/2] becomes [2*i + 1] (odd);
    the rare out-of-range int goes through a process-wide side dictionary
    and becomes a negative even code.  The mapping is injective, so
    {!equal} is int equality and {!hash} the identity.

    Codes, like symbol ids, are process-local: they must not be written to
    disk raw.  {!Datalog_storage.Snapshot} stores a dictionary section that
    re-interns them on load. *)

type t = int

val of_value : Value.t -> t
val of_symbol : Symbol.t -> t
val of_int : int -> t

val to_value : t -> Value.t
(** Raises [Invalid_argument] on an int that was never produced by an
    encoding function in this process. *)

val is_int : t -> bool
val is_symbol : t -> bool

val to_int : t -> int
(** The decoded int of an int code.  Raises [Invalid_argument] on a symbol
    code or an int that was never encoded in this process. *)

val fits_small : int -> bool
(** Whether an int encodes arithmetically ([2*i + 1]) rather than through
    the side dictionary. *)

val equal : t -> t -> bool
val compare : t -> t -> int
(** Fast total order on codes — {b not} the order of the decoded values;
    use {!compare_values} for that. *)

val compare_values : t -> t -> int
(** Order of the decoded values, identical to {!Value.compare}: symbols by
    interning order, ints numerically, symbols below ints. *)

val is_dictionary : t -> bool
(** Whether the code is an out-of-range int, held in the side
    dictionary. *)

val order_key : t -> int
(** For a code that is not {!is_dictionary}: an int whose order is
    {!compare_values}'s — the value of a small int, [min_int + id] for a
    symbol.  Meaningless for dictionary codes. *)

val eval_cmp : Literal.cmp -> t -> t -> bool
(** Comparison-literal semantics on codes; agrees with {!Literal.eval_cmp}
    on the decoded values. *)

val hash : t -> int

val dictionary_size : unit -> int
(** Number of out-of-range ints interned so far (diagnostics). *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val add_digits : Buffer.t -> int -> unit
(** [add_digits buf n] appends [string_of_int n] without allocating. *)

val render : Buffer.t -> t -> unit
(** [render buf c] appends [to_string c]: the digits of a small int
    ({!add_digits}), the name of a symbol, and [string_of_int] of a
    dictionary int.  Only the dictionary case allocates. *)

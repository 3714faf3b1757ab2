(** In-memory relations: an insertion-order row array that membership,
    hash indexes, sorted columnar projections and delta slices all index
    into.

    Membership is an open-addressing table of slot numbers into the row
    array.  Lookups with a partial binding ([select], [probe]) create
    (once) a hash index keyed on the bound columns, which makes the
    nested-loop joins of the evaluators index-backed; {!sorted_view}
    maintains per-column-set sorted projections (column-major key arrays
    over rows ordered by raw code), which back the galloping merge joins
    of the plan executor.  Neither is touched by {!insert}: each covers
    the row positions below its own watermark and catches up from there
    when it is next read, so an index nobody reads again costs nothing.

    {!since} is a read-only slice of a relation: the rows inserted after
    a {!mark}, sharing the parent's rows and membership, with indexes of
    its own — the semi-naive delta of a fixpoint round. *)

open Datalog_ast

type t

val create : ?name:string -> ?capacity:int -> int -> t
(** [create arity] is an empty relation. [name] is used in error messages.
    [capacity] (default 0) reserves room for that many inserts, which
    then neither grow the row store nor rebuild the membership table. *)

val arity : t -> int

val insert : t -> Tuple.t -> bool
(** Add a tuple; returns [true] iff it was not already present.
    @raise Invalid_argument on arity mismatch, or on a slice. *)

val remove : t -> Tuple.t -> bool
(** Delete a tuple; returns [true] iff it was present.  O(#indexes):
    the insertion-order slot is tombstoned (and the array compacted once
    tombstones dominate), and each index that already covers the slot
    merely counts the deletion in its bucket — dead entries are filtered
    out the next time the bucket is read, which the reader pays nothing
    extra for since it walks the bucket anyway.  A bucket emptied by
    deletions is removed rather than left behind.  Sorted projections
    covering the slot are marked stale and rebuilt on their next read.
    @raise Invalid_argument on a slice. *)

val mem : t -> Tuple.t -> bool
val cardinal : t -> int
val is_empty : t -> bool

val iter : (Tuple.t -> unit) -> t -> unit
(** Iterate in insertion order (deterministic); does not allocate.

    Snapshot contract, which the plan executors' scans and merge joins
    rely on instead of copying the relation: [f] may {!insert} into the
    relation it iterates (the store may grow, and be reallocated, during
    the iteration), and the tuples inserted while [iter] runs are not
    visited — the iteration covers exactly the tuples present when it
    started.  [f] must not {!remove} from or {!clear} the relation. *)

val fold : (Tuple.t -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold in insertion order, allocation-free (beyond what [f] allocates). *)

val to_list : t -> Tuple.t list
(** Tuples in insertion order. *)

val added_since : t -> int -> Tuple.t list * int
(** [added_since r mark] is the live tuples inserted at or after the
    insertion-order position [mark], oldest first, and the position that
    follows the last of them — the mark to pass next time.  [0] is the
    start.  Marks assume an insert-only relation: a {!remove} may compact
    the order array and shift later tuples below an earlier mark. *)

val mark : t -> int
(** The insertion-order position the next insert takes: a mark for
    {!added_since} and {!since}. *)

val since : t -> int -> t
(** [since r mark] is a read-only slice of [r]: the live tuples inserted
    at or after position [mark] and before [mark r], in insertion order.
    It shares [r]'s rows and membership table (no tuple is copied) and
    builds its own hash indexes and sorted projections lazily, so a
    slice's buckets and sorted views list its tuples exactly as a fresh
    relation holding them in that order would.  {!insert}, {!remove} and
    {!clear} on a slice raise [Invalid_argument].

    Validity: the slice stays valid while [r] is insert-only after
    [mark], as for {!added_since}; inserts past the slice's end, and the
    growth and rehashing they cause, leave it unchanged.  A {!remove} or
    {!clear} on [r] invalidates it. *)

val select : t -> (int * Code.t) list -> Tuple.t list
(** [select r bindings] returns the tuples agreeing with the given
    [(column, code)] constraints, using (and building if necessary) a hash
    index on those columns.  [select r []] returns all tuples.  Duplicate
    bindings on one column are collapsed: equal codes are redundant,
    conflicting codes match nothing (the result is [[]]). *)

val matching : t -> Tuple.pattern -> Tuple.t list
(** The tuples the pattern accepts ({!Tuple.filter}), sorted by
    {!Tuple.sort}: a {!select} on the pattern's constants, or every
    tuple, read straight into the sort's array, when the pattern's
    arguments are pairwise-distinct variables.  The pattern's arity must
    be the relation's. *)

val select_count : t -> (int * Code.t) list -> Tuple.t list * int
(** Like {!select} but also returns the number of tuples in O(1), so
    profiling callers do not have to walk the bucket with [List.length]. *)

type access
(** A pre-resolved index handle for a fixed column set: the column sort,
    duplicate validation and [int list] hash lookup that {!select} pays on
    every call are paid once at {!prepare} time (plan compilation). *)

val prepare : int list -> access
(** [prepare cols] validates and sorts [cols] once.  The handle is not
    tied to a relation: it memoises the index of the last relation it was
    probed against (checked by physical equality and a generation counter
    bumped by {!clear}), so one handle can serve e.g. the per-round delta
    slice ({!since}) that changes identity between rounds.
    @raise Invalid_argument on duplicate or negative columns. *)

val probe : t -> access -> Code.t array -> Tuple.t list * int
(** [probe r a key] returns the bucket of tuples whose projection onto the
    prepared columns equals [key], plus its length in O(1).  [key] codes
    must be in ascending column order (the order of the sorted [cols]
    given to {!prepare}).  Rows inserted since the index was last read
    are indexed first. *)

type sorted_access
(** A pre-resolved handle for a sorted columnar projection on a fixed
    column set, the {!access} analogue for merge joins. *)

type sorted_view = {
  sv_rows : Tuple.t array;
      (** live tuples ordered by their projection onto the prepared
          columns (raw code order); equal keys are ordered newest first,
          matching the hash buckets' within-key order *)
  sv_keys : Code.t array array;
      (** column-major keys: [sv_keys.(j).(i) = sv_rows.(i).(cols.(j))] *)
  sv_len : int;
      (** number of live slots: only [sv_rows.(0 .. sv_len - 1)] (and the
          matching key prefixes) are meaningful — the arrays are
          capacity-managed and may be longer *)
}

val prepare_sorted : int list -> sorted_access
(** [prepare_sorted cols] validates and sorts [cols] once, like
    {!prepare}.  The handle memoises the projection of the last relation
    it was used against (physical equality + generation check).
    @raise Invalid_argument on duplicate or negative columns. *)

val sorted_view : t -> sorted_access -> sorted_view
(** [sorted_view r a] is the up-to-date sorted projection of [r] on the
    prepared columns, building it lazily on first use.  Inserts since the
    last view are absorbed as a run, sorted by {!Tuple.sort_by_codes}
    and merged in place into the buffers (amortized O(run) allocation);
    removals of rows the projection already covers force a full rebuild,
    sorted the same way.
    The returned arrays are owned by the relation and must not be
    mutated; they are valid until the next mutation of [r]. *)

val copy : t -> t
(** A fresh relation with the same tuples (indexes are not copied); the
    copy of a slice is an ordinary, writable relation. *)

val clear : t -> unit
(** @raise Invalid_argument on a slice. *)

val union_into : src:t -> dst:t -> int
(** Insert every tuple of [src] into [dst]; returns how many were new. *)

val index_count : t -> int
(** Number of secondary hash indexes currently built (diagnostics). *)

val sorted_index_count : t -> int
(** Number of sorted columnar projections currently built (diagnostics). *)

val bucket_count : t -> int
(** Total number of hash buckets across all indexes (diagnostics: after
    removals this stays proportional to the live keys, since emptied
    buckets are deleted). *)

val pp : Format.formatter -> t -> unit

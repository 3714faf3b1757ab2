(** CRC-32 (IEEE 802.3 polynomial, the zlib/PNG variant).

    Used by {!Wal} to checksum each frame, so a corrupted log is
    detected at load time instead of silently feeding wrong tuples into
    an evaluation.  Pure OCaml, table-driven over native ints (no boxed
    [Int32] in the loop); no external dependency. *)

type t = int
(** A checksum: an int in [0, 2{^32}). *)

val string : string -> t
(** CRC of a whole string. *)

val update : t -> string -> pos:int -> len:int -> t
(** Fold more bytes into a running CRC (start from {!empty}).
    @raise Invalid_argument if [pos, pos + len) is not within [s]. *)

val empty : t
(** The CRC of the empty string. *)

val to_hex : t -> string
(** Fixed-width lowercase hex (8 characters). *)

val of_hex : string -> t option
(** Inverse of {!to_hex}; [None] on malformed input. *)

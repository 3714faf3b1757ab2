(** Versioned, checksummed, atomically installed database snapshots.

    A snapshot is a single text file:

    {v
    ALEXSNAP 2
    meta <n>                      n escaped key<TAB>value lines
    dict <n> <crc32>              n code<TAB>tagged-value lines
    section <name> <arity> <count> <crc32>
    ...count tuple lines (TAB-separated integer codes)...
    ...more sections...
    manifest <nsections> <crc32>
    ...one escaped name<TAB>arity<TAB>count<TAB>crc32 line per section...
    end ALEXSNAP
    v}

    Tuples are stored as their raw {!Datalog_ast.Code} ints.  Odd codes
    (small ints) are self-describing; every even code appearing in the
    image — symbols and side-dictionary ints, whose codes are
    process-local — has a dictionary line mapping it to a tagged value
    ("i:<int>" / "s:<escaped sym>") that the reader re-interns, so a
    snapshot loads correctly in a process with a different intern state.
    The dictionary is structural: damage to it is fatal even in
    {!Lenient} mode (a section referencing a code the dictionary lacks
    is, however, skippable per-section like any other malformation).

    Format 1 ("ALEXSNAP 1", tagged-value tuple fields, no dict block) is
    no longer read: it fails as [Unsupported_version 1] in both modes.
    Checkpoints are not snapshots either; they are
    {!Datalog_storage.Wal}-framed logs (see {!Datalog_engine.Checkpoint}).

    Installation is atomic: the whole image is serialized, written to
    [path ^ ".tmp"], flushed with [fsync], [rename]d over [path], and the
    parent directory is fsynced (so the rename itself survives power
    loss) — at every instant [path] either does not exist, holds the
    previous complete snapshot, or holds the new complete snapshot.  A
    crash can only leave a stale [.tmp] behind, never a half-written
    [path].

    Detection is layered: every section carries a CRC-32 of its tuple
    lines, the manifest (written last) repeats every section's header and
    carries its own CRC, and a final end marker guards against
    truncation.  Loads either succeed with verified data, degrade
    per-relation with a typed {!warning} list ({!Lenient}), or fail
    cleanly with a typed {!corruption} ({!Strict}, and structural damage
    in either mode).

    All file-system side effects are routed through {!Faults}, so the
    fault-injection suites can tear every write. *)

open Datalog_ast

val format_version : int
(** The version written: 2. *)

val oldest_readable_version : int
(** The oldest version {!read} accepts: 2. *)

type corruption =
  | Not_a_snapshot of string  (** unreadable, or the magic line is wrong *)
  | Unsupported_version of int
  | Truncated of string
      (** the file ends before the named part (a torn or short write) *)
  | Checksum_mismatch of { section : string; expected : string; actual : string }
  | Malformed of { section : string; line : int; reason : string }
      (** [line] is 1-based in the file; [section] is ["header"],
          ["meta"], ["manifest"] or a section name *)
  | Manifest_mismatch of { section : string; reason : string }
      (** the manifest and the section headers disagree *)

type warning = { w_section : string; w_corruption : corruption }
(** In {!Lenient} mode, a skipped section and why. *)

type mode =
  | Strict  (** any corruption fails the whole load *)
  | Lenient
      (** per-section corruption skips that section with a {!warning};
          structural damage (bad magic, truncation, manifest damage)
          still fails *)

type section = {
  s_name : string;
  s_arity : int;
  s_tuples : Tuple.t list;  (** in serialized (insertion) order *)
}

type contents = {
  meta : (string * string) list;
  sections : section list;
  warnings : warning list;  (** empty under {!Strict} *)
}

val write :
  ?meta:(string * string) list ->
  sections:(string * int * Tuple.t list) list ->
  string ->
  (unit, string) result
(** [write ~meta ~sections path] atomically installs a snapshot holding
    the given [(name, arity, tuples)] sections.  [Error] on I/O failure
    (the previous [path], if any, is untouched). *)

val read : ?mode:mode -> string -> (contents, corruption) result
(** Default mode is {!Strict}. *)

val save_database :
  ?meta:(string * string) list -> Database.t -> string -> (unit, string) result
(** One section per predicate, named ["rel:<pred>"].  [meta] entries are
    stored alongside the standard [kind=database] stamp (the server uses
    this for its acked-transaction counter). *)

val load_database :
  ?mode:mode -> string -> (Database.t * warning list, corruption) result
(** Inverse of {!save_database}; non-["rel:"] sections are ignored. *)

val load_database_meta :
  ?mode:mode ->
  string ->
  (Database.t * (string * string) list * warning list, corruption) result
(** {!load_database} plus the snapshot's meta block. *)

val atomic_write_string : string -> string -> (unit, string) result
(** [atomic_write_string path data]: the write-temp / fsync / rename
    primitive on its own, for writers with their own formats ({!Io},
    {!Wal}'s reset, a checkpoint's base frame). *)

val describe_corruption : corruption -> string
val pp_corruption : Format.formatter -> corruption -> unit
val describe_warning : warning -> string

(** {1 Encoding helpers} (shared with {!Datalog_engine.Checkpoint}) *)

val escape : string -> string
(** Escapes backslash, tab, newline, CR and space — the format's
    structural characters. *)

val unescape : string -> (string, string) result

val encode_value : Value.t -> string
val decode_value : string -> (Value.t, string) result

(** Write-ahead log of transactional fact batches, and the CRC-framed
    log format it shares with {!Datalog_engine.Checkpoint}.

    The serve loop's durable acks used to rewrite a full snapshot per
    transaction — O(database) durability cost per mutation.  This module
    makes durability O(batch): each committed transaction is one
    CRC32-framed record appended to a single log file, and recovery is
    snapshot load + log replay.

    {2 Format}

    A log is a text file:

    {v
    ALEXWAL 1
    frame <nbytes> <crc32>
    ...nbytes of frame body...
    frame <nbytes> <crc32>
    ...
    v}

    A frame body is one head line, then lines the head's kind defines,
    then dictionary and fact lines:

    {v
    <head>
    d <code><TAB><tagged value>        (ndict lines)
    f <escaped name><TAB><arity>[<TAB><code>...]   (nfacts lines)
    v}

    A transaction's head is [txn <id> <add|remove> <nfacts> <ndict>
    <k:escaped-key | ->]; a checkpoint's frames are described in
    {!Datalog_engine.Checkpoint}.

    Tuples are stored as raw {!Datalog_ast.Code} ints, exactly like
    ALEXSNAP 2: odd codes (small ints) are self-describing, and every
    even code (symbols, side-dictionary ints — process-local) first
    appears with a [d] line mapping it to a tagged value ("i:<int>" /
    "s:<escaped sym>").  Dictionary lines are {e deltas}: a code is
    emitted once per writer session, and the reader folds them in
    sequentially with replace semantics — so after a restart the new
    process re-emits its own mappings, which override the dead process's
    codes for all subsequent frames.  Replay must therefore decode each
    frame eagerly, in order.

    {2 Torn tails}

    The append path writes each frame with a single [write]; a crash can
    only leave a torn {e suffix}.  {!load} verifies frames in order and
    stops at the first invalid one: in [Lenient] mode it returns the
    valid prefix plus the byte offset to truncate at ({!tail}); in
    [Strict] mode any damage fails the load.  A fresh, empty or
    headerless file is "torn at byte 0" — Lenient recovers it to an
    empty log.

    {2 Fsync policies}

    [Always] fsyncs after every append (every acked transaction is
    durable before the ack leaves the process).  [Interval s] groups
    commits: appends mark the log dirty and {!maybe_sync} flushes at
    most every [s] seconds, bounding data loss to that window.  [Never]
    leaves flushing to the OS.

    All file-system side effects are routed through {!Faults}. *)

open Datalog_ast

val format_version : int
(** The version written and read: 1. *)

val header : string
(** The first line of every log, newline included: ["ALEXWAL 1\n"]. *)

type fsync_policy = Always | Interval of float | Never

val fsync_policy_of_string : string -> (fsync_policy, string) result
(** ["always"], ["never"], ["interval"] (default 0.05s) or
    ["interval:SECONDS"]. *)

val fsync_policy_name : fsync_policy -> string

type entry = {
  e_txn : int;  (** the transaction id this batch committed as *)
  e_op : [ `Add | `Remove ];
  e_key : string option;  (** client idempotency key, echoed in the ack *)
  e_facts : Atom.t list;  (** decoded, in request order *)
}

type corruption =
  | Not_a_log of string  (** unreadable, or the magic line is wrong *)
  | Unsupported_version of int
  | Damaged of { offset : int; reason : string }
      (** [offset] is the byte position of the bad frame *)

val describe_corruption : corruption -> string

type tail =
  | Clean
  | Torn of { at : int; reason : string }
      (** bytes from [at] on were discarded (Lenient only) *)

val load :
  ?mode:Snapshot.mode ->
  string ->
  (entry list * int * tail, corruption) result
(** [load path] parses and decodes the log.  Returns the entries in
    append order, the byte length of the valid prefix (pass it to
    {!open_for_append}), and whether a tail was discarded.  Default mode
    is [Strict].  A nonexistent file is not an error: it loads as
    [([], 0, Clean)]. *)

(** {1 Frames}

    The layer below transactions, shared with checkpoints: framing,
    scanning, fact lines with dictionary deltas, and the one-frame
    append. *)

val frame : string -> string
(** [frame body] is ["frame <nbytes> <crc32>\n" ^ body]. *)

type stop =
  | End  (** every byte after the header belongs to a valid frame *)
  | Truncated of { at : int; reason : string }
      (** the data ends inside the frame starting at byte [at] — the
          mark a crash mid-append leaves *)
  | Bad_checksum of { at : int; expected : string; actual : string }
      (** the complete frame at [at] fails its CRC *)
  | Bad_header of { at : int; reason : string }
      (** the complete header line at [at] does not parse *)

val scan : string -> ((int * string) list * stop, corruption) result
(** [scan data] checks a log's header and splits off its CRC-verified
    frame bodies, each with its byte offset, up to the first frame that
    is truncated or damaged ([stop] says which).  [Error] is a missing,
    torn or foreign header ([Not_a_log], [Unsupported_version]). *)

type lines = {
  ndict : int;
  nfacts : int;
  text : string;  (** the [d] lines, then the [f] lines *)
  fresh : int list;  (** the codes the [d] lines introduce *)
}

val fact_lines :
  emitted:(int, unit) Hashtbl.t ->
  ((string -> int -> Tuple.t -> unit) -> unit) ->
  lines
(** [fact_lines ~emitted iter] encodes every [(name, arity, tuple)] that
    [iter] emits (names grouped, so each is escaped once per run), with
    a [d] line for each even code not in [emitted].  [emitted] is not
    modified: add [fresh] to it once the frame is on disk. *)

val body_lines : string -> (string list, string) result
(** A body's lines, without the final newline's empty remainder. *)

val decode_facts :
  dict:(int, Code.t) Hashtbl.t ->
  ndict:int ->
  nfacts:int ->
  string list ->
  ((string * int * Tuple.t) list, string) result
(** Decode exactly [ndict] [d] lines, folded into [dict] (stored code ->
    current code) with replace semantics, then [nfacts] [f] lines. *)

val append_frame : string -> at:int -> string -> (int, string) result
(** [append_frame path ~at body] writes [frame body] at byte [at] of the
    existing log [path], fsyncs it and returns the new length.  On an
    I/O error the file is truncated back to [at].  Each call opens and
    closes the file, so a caller holds no descriptor between frames. *)

(** {1 Appending transactions} *)

type t

val open_for_append :
  ?fsync:fsync_policy -> valid_bytes:int -> string -> (t, string) result
(** Open [path] for appending at offset [valid_bytes] (from {!load}),
    truncating any torn tail beyond it.  If [valid_bytes] is 0 the file
    is (re)created with a fresh header.  Default policy is [Always]. *)

val append :
  t -> txn:int -> op:[ `Add | `Remove ] -> ?key:string -> Atom.t list ->
  (unit, string) result
(** Frame, write and (policy permitting) fsync one transaction.  Passes
    the ["wal.appended"] kill-point between the write and the fsync.  On
    an I/O error the partial frame is truncated away and [Error] is
    returned; if even the truncation fails the log is {e wedged} — every
    later append refuses with [Error] — because appending after a torn
    middle would corrupt the log. *)

val truncate_last : t -> (unit, string) result
(** Undo the most recent successful {!append} (the caller's apply step
    failed after the frame was already durable).  Truncates the file
    back and forgets any dictionary codes that frame introduced, so a
    later append re-emits them.  Wedges the log if truncation fails. *)

val sync : t -> (unit, string) result
(** Force an fsync now (rotation, shutdown), whatever the policy. *)

val maybe_sync : t -> now:float -> (unit, string) result
(** Under [Interval s]: fsync if dirty and [s] elapsed since the last
    sync.  No-op under [Always] / [Never]. *)

val reset : t -> (unit, string) result
(** Truncate the log to a fresh header (rotation: the caller just
    installed a snapshot covering every logged transaction).  The empty
    log is installed atomically (write-temp/fsync/rename), so a crash
    mid-reset leaves either the old log or the new empty one.  On
    [Error] the old log is kept and stays usable. *)

val size : t -> int
(** Current byte length (the rotation trigger compares this against the
    configured threshold). *)

val path : t -> string
val fsync_policy : t -> fsync_policy

val close : t -> unit
(** Flush (best-effort) and close.  No fsync — call {!sync} first if the
    tail must be durable. *)

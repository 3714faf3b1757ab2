(** The one on-disk format: a CRC-framed log.  The server's durable
    state, a {!Snapshot} database image and a
    {!Datalog_engine.Checkpoint} are all logs of this shape.

    {2 Format}

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

    The server's log holds an optional {e base} frame, then one frame per
    committed transaction:
    - a base's head is [base <nmeta> <ndict> <nfacts>], followed by
      [m <escaped key><TAB><escaped value>] meta lines (the {!meta_body}
      layout checkpoint frames share) and every fact of the image;
    - a transaction's head is [txn <id> <add|remove> <nfacts> <ndict>
      <k:escaped-key | ->].

    A fresh log has no base.  Rotation {!install}s a new log holding only
    a base (write temp, fsync, rename, fsync the directory), so at every
    instant the path holds either the old complete log or the new one.

    Tuples are stored as raw {!Datalog_ast.Code} ints: odd codes (small
    ints) are self-describing, and every even code (symbols,
    side-dictionary ints — process-local) first appears with a [d] line
    mapping it to a tagged value ("i:<int>" / "s:<escaped sym>").
    Dictionary lines are {e deltas}: a code is emitted once per writer
    session (a base defines the codes its image uses), and the reader
    folds them in sequentially with replace semantics — so after a
    restart the new process re-emits its own mappings, which override the
    dead process's codes for all subsequent frames.  Replay must
    therefore decode each frame eagerly, in order.

    {2 Torn tails}

    The append path writes each frame with a single [write]; a crash can
    only leave a torn {e suffix}.  {!load} verifies frames in order and
    stops at the first invalid one: in [Lenient] mode it returns the
    valid prefix plus the byte offset to truncate at ({!tail}); in
    [Strict] mode any damage fails the load.  Damage to a base (or to a
    first frame whose body neither starts like a transaction nor is
    still zero-filled) fails in both modes: a base is installed
    atomically, so no crash tears it.  A
    fresh, empty or header-prefix file is "torn at byte 0" — Lenient
    recovers it to an empty log; any other foreign file is refused.

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

type mode =
  | Strict  (** any damage fails the load *)
  | Lenient  (** a torn or damaged transaction tail is cut off *)

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

type damage =
  | Cut_short of string  (** the data ends inside the frame *)
  | Checksum of { expected : string; actual : string }
      (** the complete frame fails its CRC *)
  | Unparsable of string
      (** its complete header line, or its body, does not parse *)

type corruption =
  | Not_a_log of string  (** unreadable, or the magic line is wrong *)
  | Unsupported_version of int
  | Damaged of { offset : int; damage : damage }
      (** [offset] is the byte position of the bad frame *)

val describe_corruption : corruption -> string

type tail =
  | Clean
  | Torn of { at : int; reason : string }
      (** bytes from [at] on were discarded (Lenient only) *)

type log = {
  base : ((string * string) list * Database.t) option;
      (** the base frame's meta entries and image *)
  entries : entry list;  (** the transactions after it, in append order *)
  base_end : int;  (** byte offset where the transaction frames start *)
  valid_bytes : int;  (** length of the valid prefix *)
  tail : tail;
}

val load : ?mode:mode -> string -> (log, corruption) result
(** [load path] parses and decodes the log.  Pass [valid_bytes] and
    [base_end] to {!open_for_append}.  Default mode is [Strict].  A
    nonexistent file is not an error: it loads as an empty log with
    [valid_bytes = 0]. *)

(** {1 Encoding helpers} (shared with {!Datalog_engine.Checkpoint}) *)

val escape : string -> string
(** Escapes backslash, tab, newline, CR and space — the format's
    structural characters. *)

val unescape : string -> (string, string) result
val encode_value : Value.t -> string
val decode_value : string -> (Value.t, string) result

(** {1 Frames}

    The layer below transactions, shared with checkpoints: framing,
    scanning, fact lines with dictionary deltas, meta frames, the atomic
    install and the one-frame append. *)

val frame : string -> string
(** [frame body] is ["frame <nbytes> <crc32>\n" ^ body]. *)

type stop =
  | End  (** every byte after the header belongs to a valid frame *)
  | Stopped of { at : int; damage : damage }
      (** the frame starting at byte [at] is damaged; [Cut_short] is the
          mark a crash mid-append leaves *)

type span = {
  at : int;  (** byte offset of the frame's header line *)
  pos : int;  (** byte offset of its body *)
  len : int;  (** body length *)
}

val scan : string -> (span list * stop, corruption) result
(** [scan data] checks a log's header and finds its CRC-verified frame
    bodies, up to the first frame that is truncated or damaged ([stop]
    says which).  No body is copied.  [Error] is a missing, torn or
    foreign header ([Not_a_log], [Unsupported_version]). *)

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

val meta_body : string -> (string * string) list -> lines -> string
(** [meta_body head meta lines] is the body [<head> <nmeta> <ndict>
    <nfacts>], one [m] line per meta entry, then [lines.text]. *)

(** {1 Decoding}

    One streaming decoder reads every frame body: a single cursor over
    the log's bytes, codes read in place into each tuple.  A frame's
    facts are handed out only once its whole body has decoded, so a
    frame that fails half-way leaves the caller at the previous frame.
    [d] lines fold into the caller's [dict] (stored code -> current
    code) with replace semantics as they are read. *)

type facts
(** The fact lines of one decoded frame, in order, in runs of one name
    and arity. *)

val iter_runs :
  facts -> (string -> int -> Tuple.t array -> int -> int -> unit) -> unit
(** [iter_runs facts f] calls [f name arity tuples first n] once per
    run, in order: the run's facts are [tuples.(first)] to
    [tuples.(first + n - 1)]. *)

val decode_meta_body :
  dict:(int, Code.t) Hashtbl.t ->
  string ->
  pos:int ->
  len:int ->
  (string * (string * string) list * facts, string) result
(** Inverse of {!meta_body} on the body at [s.[pos .. pos + len)]: the
    head's words before the counts (["ckpt round"]), the meta entries
    and the facts. *)

val decode_txn :
  dict:(int, Code.t) Hashtbl.t ->
  string ->
  pos:int ->
  len:int ->
  (entry, string) result
(** Decode the transaction body at [s.[pos .. pos + len)] ({!load} reads
    every [txn] frame with it). *)

val base_body : (string * string) list -> Database.t -> string * int list
(** A base frame body holding [meta] and every fact of the database,
    and the dictionary codes it defines. *)

val install : string -> string -> (int, string) result
(** [install path body] atomically replaces [path] with a log holding
    the one frame [body], and returns its length.  [Error] on I/O
    failure; [path] then holds the previous file, unless only the final
    directory sync failed. *)

val atomic_write_string : string -> string -> (unit, string) result
(** The write-temp / fsync / rename / dirsync primitive under
    {!install}, for writers with their own formats ({!Io}). *)

val append_frame : string -> at:int -> string -> (int, string) result
(** [append_frame path ~at body] writes [frame body] at byte [at] of the
    existing log [path], fsyncs it and returns the new length.  On an
    I/O error the file is truncated back to [at].  Each call opens and
    closes the file, so a caller holds no descriptor between frames. *)

(** {1 Appending transactions} *)

type t

val open_for_append :
  ?fsync:fsync_policy ->
  ?base_end:int ->
  valid_bytes:int ->
  string ->
  (t, string) result
(** Open [path] for appending at offset [valid_bytes] (from {!load}),
    truncating any torn tail beyond it.  If [valid_bytes] is 0 the file
    is (re)created with a fresh header.  [base_end] (from {!load};
    default: no base) is where {!appended} starts counting.  Default
    policy is [Always]. *)

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
(** Force an fsync now (shutdown), whatever the policy. *)

val maybe_sync : t -> now:float -> (unit, string) result
(** Under [Interval s]: fsync if dirty and [s] elapsed since the last
    sync.  No-op under [Always] / [Never]. *)

val reopen : t -> codes:int list -> (unit, string) result
(** The second half of a rotation: after an {!install} replaced the
    writer's path with a new base, move the writer to the new file's
    end; [codes] are the dictionary codes the base defines.  A no-op
    when the path still names the writer's file (the install failed
    before its rename).  Wedges the writer if the new file cannot be
    opened. *)

val size : t -> int
(** Current byte length. *)

val appended : t -> int
(** Bytes of transaction frames after the base (or the header): the
    rotation trigger, so a base larger than the threshold does not make
    every append rotate. *)

val path : t -> string
val fsync_policy : t -> fsync_policy

val close : t -> unit
(** Flush (best-effort) and close.  No fsync — call {!sync} first if the
    tail must be durable. *)

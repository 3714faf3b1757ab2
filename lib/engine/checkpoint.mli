(** Checkpointed, resumable fixpoints.

    A checkpoint holds everything an engine needs to continue an
    interrupted evaluation: the database (or the call tables, for the
    tabled engine), the current delta, the stratum, the counters, and
    enough context (strategy, query) to refuse a resume under a
    different evaluation.

    Like {!Limits} and {!Profile}, the module follows the inactive-
    sentinel pattern: {!none} is a preallocated inactive value, every
    engine hook starts with one field test, and an engine run with
    [checkpoint = none] pays nothing.

    When a checkpoint {e is} active, the engines call {!on_round} /
    {!on_step} at clean iteration boundaries (every [every]-th fires a
    save) and {!on_interrupt} / {!on_interrupt_tables} when a budget runs
    out mid-evaluation, so an [Exhausted _] run always leaves a resumable
    image behind.

    {2 The log}

    The file is a {!Datalog_storage.Wal} log (same header, CRC frames,
    dictionary deltas and torn-tail scan) whose frame bodies are

    {v
    ckpt <base|round> <nmeta> <ndict> <nfacts>
    m <escaped key><TAB><escaped value>      (nmeta lines)
    d ... / f ...                            (Wal fact lines)
    v}

    with facts in sections ["db:<pred>"], ["delta:<pred>"] and
    ["tbl:<i>"] (the call pattern of table [i] is meta key ["tbl:<i>"]).
    A save costs what the evaluation added since the previous one, not
    the whole database:
    - The first save of a [t] installs a {e base} frame atomically
      ({!Datalog_storage.Wal.install}: write temp, fsync, rename, fsync
      the directory): the context, the full database,
      the delta and the counters.  A crash during it leaves the previous
      file intact.
    - Every later save appends one {e round} frame and fsyncs it: the
      facts added to the database since the previous frame (found by a
      per-relation mark into {!Datalog_storage.Relation}'s insertion
      order), the delta (or ["delta added"] when it is exactly those
      facts, as at every round of a semi-naive run), the tables, the
      stratum, round count and counters.  A failed append is cut back
      off the file.
    - A save over a different database object, under a changed context,
      or after a relation was replaced or shrank writes a new base
      instead: the engines only ever add facts between saves.

    Every prefix of the log that ends at a frame boundary is exactly an
    earlier save's state.  So {!load} replays base + round frames; a
    final frame the file ends inside (a crash mid-append) is ignored in
    both modes, and a complete frame that fails its CRC or does not
    parse fails a {!Datalog_storage.Snapshot.Strict} load and ends a
    [Lenient] one, which resumes from the frames before it.

    {2 Resume correctness, per engine}

    - {e naive}: rounds re-evaluate everything, so restarting the loop on
      the saved database is trivially equivalent.
    - {e semi-naive}: at a round boundary the saved delta is exactly the
      facts the next round must join through, so the loop warm-starts.
      On a mid-round interrupt the saved delta is the union of the round's
      input delta and the partial output delta — the interrupted round is
      redone in full (soundly: derivation is monotone and [db] already
      holds the partial output).  An interrupt during the very first
      (full) round saves no delta at all, forcing a full restart: not
      every rule has run yet, so no delta is trustworthy.
    - {e stratified}: the saved stratum's lower strata are complete (the
      invariant of stratified evaluation), so resume skips them and
      warm-starts the saved stratum.
    - {e tabled}: tables are monotone, so resume reinstalls them and
      re-schedules every call; saturation then completes exactly the
      answers of an uninterrupted run.  Each tabled save logs every
      table in full. *)

open Datalog_ast
open Datalog_storage

type t

exception Save_error of string
(** A checkpoint save failed (I/O).  Raised out of the engine hooks;
    {!Datalog_core.Solve} translates it into a typed error.  A simulated
    kill ({!Faults.Crashed}) is {e not} wrapped — it propagates. *)

val none : t
(** The inactive checkpoint: every hook is a single field test. *)

val create :
  path:string -> ?every:int -> ?kill_after_save:int -> unit -> t
(** A checkpoint writing to [path] every [every] completed rounds
    (default 1).  [kill_after_save n] simulates a process kill
    (raises {!Faults.Crashed}) immediately after the [n]-th save
    completes — the fault-injection suites use it to interrupt an
    evaluation at an arbitrary round with a valid checkpoint on disk. *)

val is_active : t -> bool
val path : t -> string

val saves : t -> int
(** Saves (base or round frames) completed since {!create}. *)

(** {1 Context} — stamped into the checkpoint and verified on resume *)

val set_context : t -> strategy:string -> query:string -> unit
val set_evaluator : t -> string -> unit
val set_stratum : t -> int -> unit
val set_counters : t -> Counters.t -> unit
(** The live counters to serialize with each save. *)

(** {1 Engine hooks} *)

val on_round : t -> db:Database.t -> delta:Database.t option -> unit
(** A fixpoint round completed: [db] is the state after the round,
    [delta] the facts it produced ([None] for the naive engine, which
    needs no delta).  Saves when the round cadence is due.
    @raise Save_error on I/O failure. *)

val on_interrupt : t -> db:Database.t -> delta:Database.t option -> unit
(** The budget ran out: save unconditionally.  [delta = None] means the
    resume must restart the current fixpoint from [db]. *)

type table = Pred.t * (int * Value.t) list * Tuple.t list
(** A tabled call — predicate, bound argument positions, answers — in a
    shape that keeps this module independent of {!Tabled}'s internals. *)

val on_step : t -> db:Database.t -> tables:(unit -> table list) -> unit
(** One tabled agenda step completed.  [tables] is consulted only when a
    save is due (dumping every table per step would be quadratic). *)

val on_interrupt_tables :
  t -> db:Database.t -> tables:(unit -> table list) -> unit

(** {1 Resume} *)

type resume = {
  r_strategy : string;
  r_query : string;
  r_evaluator : string;
  r_stratum : int;
  r_rounds : int;  (** completed rounds at save time (cadence continuity) *)
  r_counters : int * int * int * int * int;
      (** facts_derived, firings, probes, scanned, iterations *)
  r_db : Database.t;
  r_delta : Database.t option;
  r_tables : table list;
}

val load :
  ?mode:Snapshot.mode ->
  string ->
  (resume * Snapshot.warning list, Snapshot.corruption) result
(** Replay a checkpoint log: the state of the last complete frame.
    Under {!Snapshot.Strict} a damaged complete frame fails the load
    ([Checksum_mismatch] or [Malformed], naming the frame's byte
    offset); under {!Snapshot.Lenient} it ends the replay with one
    {!Snapshot.warning}, and the frames before it are resumed.  A
    damaged or missing base frame fails in both modes.  A torn final
    frame is not damage: the previous frame is resumed without a
    warning. *)

val restore_counters : resume -> Counters.t -> unit

val resume_rounds : t -> resume -> unit
(** Continue the save cadence from the resumed round count. *)

val verify_context :
  resume -> strategy:string -> query:string -> (unit, string) result
(** Refuse to resume under a different strategy or query. *)

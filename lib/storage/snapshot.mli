(** Database images: a {!Wal} log holding one base frame.

    {!save_database} installs the log atomically through {!Wal.install}
    (write temp, fsync, rename, fsync the directory), so [path] always
    holds either the previous complete image or the new one.  The
    server's durable state is the same kind of log with transaction
    frames after the base (see {!Datalog_server.Supervisor}).

    Files of the retired ALEXSNAP section format are not read: they fail
    as {!Not_a_snapshot} in both modes.

    The corruption and warning types here are also what
    {!Datalog_engine.Checkpoint.load} reports. *)

type mode = Wal.mode =
  | Strict  (** any corruption fails the whole load *)
  | Lenient  (** a torn or damaged tail is cut off with a {!warning} *)

type corruption =
  | Not_a_snapshot of string  (** unreadable, or not a log of this format *)
  | Unsupported_version of int
  | Truncated of string
      (** the file ends before the named part (a torn or short write) *)
  | Checksum_mismatch of { section : string; expected : string; actual : string }
  | Malformed of { section : string; reason : string }

type warning = { w_section : string; w_corruption : corruption }
(** In {!Lenient} mode, a discarded part and why. *)

val save_database :
  ?meta:(string * string) list -> Database.t -> string -> (unit, string) result
(** Install a log whose base frame holds [meta] and every fact of the
    database.  [Error] on I/O failure. *)

val load_database :
  ?mode:mode -> string -> (Database.t * warning list, corruption) result
(** Inverse of {!save_database}.  A log without a base, or with
    transaction frames after it, is refused: only the server can replay
    those. *)

val load_database_meta :
  ?mode:mode ->
  string ->
  (Database.t * (string * string) list * warning list, corruption) result
(** {!load_database} plus the base's meta entries. *)

val describe_corruption : corruption -> string
val pp_corruption : Format.formatter -> corruption -> unit
val describe_warning : warning -> string

(** Lexer for the Datalog surface syntax.

    Comments run from [%] to end of line.  Identifiers starting with a
    lowercase letter are constants / predicate names; identifiers starting
    with an uppercase letter or [_] are variables; double-quoted strings are
    symbolic constants.

    One entry point, {!next}, returns tokens one at a time; {!position}
    tells where the last one starts.  Lines count ['\n'] only (a CRLF
    ends one line), and a tab is one column. *)

type token =
  | IDENT of string  (** lowercase identifier *)
  | VAR of string  (** uppercase/underscore identifier *)
  | INT of int
  | STRING of string
  | LPAREN
  | RPAREN
  | COMMA
  | DOT
  | IF  (** [:-] *)
  | QUERY  (** [?-] *)
  | NOT  (** [not] or [\+] *)
  | EQ | NEQ | LT | LEQ | GT | GEQ
  | EOF

type position = { line : int; col : int }

exception Error of string * position

type t

val of_string : string -> t
val next : t -> token
(** Consume and return the next token; after the last, [EOF] for ever.
    It allocates nothing beyond the payload of an [IDENT], [VAR],
    [STRING] or [INT].
    @raise Error on an invalid character, an unterminated string or an
    out-of-range integer, at the position where the token starts. *)

val position : t -> position
(** Where the token {!next} last returned starts ([{line = 1; col = 1}]
    before the first). *)

val pp_token : Format.formatter -> token -> unit

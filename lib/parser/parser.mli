(** Recursive-descent parser for Datalog programs.

    Surface syntax:
    {v
      % facts, rules, queries
      parent(tom, bob).
      anc(X, Y) :- parent(X, Y).
      anc(X, Y) :- parent(X, Z), anc(Z, Y).
      win(X)    :- move(X, Y), not win(Y).
      big(X)    :- size(X, N), N >= 100.
      ?- anc(tom, X).
    v} *)

open Datalog_ast

type parsed = {
  program : Program.t;
  queries : Atom.t list;  (** the [?- ...] goals, in source order *)
}

exception Parse_error of string * Lexer.position

val parse_string : string -> (parsed, string) result
(** Parse a whole program; the error string includes line/column. *)

val parse_string_exn : string -> parsed
(** @raise Parse_error *)

val parse_file : string -> (parsed, string) result

val program_of_string : string -> Program.t
(** Convenience for tests: parse, ignore queries.
    @raise Parse_error *)

val rule_of_string : string -> Rule.t
(** Parse exactly one clause. @raise Parse_error *)

val atom_of_string : string -> Atom.t
(** Parse one atom, optionally followed by a dot, then the end of the
    input. @raise Parse_error *)

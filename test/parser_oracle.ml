(* The lexer and parser of the surface syntax as they were before the
   scanner was rewritten over explicit bounds: an option per peeked
   character, closures per identifier and integer, a position record per
   token.  Kept as the differential oracle of [test_parser.ml]: the
   library's parser must accept the same programs with the same rules,
   facts and queries, in order, and reject the others with the same
   error string.  It shares no code with the parser under test, only the
   AST and [Program.make]. *)

open Datalog_ast

module Lex = struct
  type token =
    | IDENT of string
    | VAR of string
    | INT of int
    | STRING of string
    | LPAREN
    | RPAREN
    | COMMA
    | DOT
    | IF
    | QUERY
    | NOT
    | EQ | NEQ | LT | LEQ | GT | GEQ
    | EOF

  type position = { line : int; col : int }

  exception Error of string * position

  type t = {
    src : string;
    mutable pos : int;
    mutable line : int;
    mutable bol : int;  (* offset of beginning of current line *)
  }

  let of_string src = { src; pos = 0; line = 1; bol = 0 }

  let position lx = { line = lx.line; col = lx.pos - lx.bol + 1 }

  let peek_char lx =
    if lx.pos >= String.length lx.src then None else Some lx.src.[lx.pos]

  let advance lx =
    (match peek_char lx with
    | Some '\n' ->
      lx.line <- lx.line + 1;
      lx.bol <- lx.pos + 1
    | _ -> ());
    lx.pos <- lx.pos + 1

  let is_lower c = c >= 'a' && c <= 'z'
  let is_upper c = (c >= 'A' && c <= 'Z') || c = '_'
  let is_digit c = c >= '0' && c <= '9'
  let is_ident_char c = is_lower c || is_upper c || is_digit c

  let rec skip_trivia lx =
    match peek_char lx with
    | Some (' ' | '\t' | '\r' | '\n') ->
      advance lx;
      skip_trivia lx
    | Some '%' ->
      let rec to_eol () =
        match peek_char lx with
        | None | Some '\n' -> ()
        | Some _ ->
          advance lx;
          to_eol ()
      in
      to_eol ();
      skip_trivia lx
    | None | Some _ -> ()

  let read_while lx pred =
    let start = lx.pos in
    let rec go () =
      match peek_char lx with
      | Some c when pred c ->
        advance lx;
        go ()
      | None | Some _ -> ()
    in
    go ();
    String.sub lx.src start (lx.pos - start)

  (* An integer literal read in place, negated digit by digit (so [min_int],
     whose magnitude is no int, reads too); [pos] is the literal's
     position, a leading '-' included. *)
  let read_int lx ~negative pos =
    let rec go v =
      match peek_char lx with
      | Some c when is_digit c ->
        let d = Char.code c - Char.code '0' in
        if v < (min_int + d) / 10 then
          raise (Error ("integer literal out of range", pos));
        advance lx;
        go ((v * 10) - d)
      | None | Some _ -> v
    in
    let v = go 0 in
    if negative then v
    else if v = min_int then raise (Error ("integer literal out of range", pos))
    else -v

  let read_string lx =
    let pos = position lx in
    advance lx;
    (* opening quote *)
    let buf = Buffer.create 16 in
    let rec go () =
      match peek_char lx with
      | None -> raise (Error ("unterminated string literal", pos))
      | Some '"' -> advance lx
      | Some '\\' ->
        advance lx;
        (match peek_char lx with
        | Some 'n' -> Buffer.add_char buf '\n'
        | Some 't' -> Buffer.add_char buf '\t'
        | Some c -> Buffer.add_char buf c
        | None -> raise (Error ("unterminated escape", pos)));
        advance lx;
        go ()
      | Some c ->
        Buffer.add_char buf c;
        advance lx;
        go ()
    in
    go ();
    Buffer.contents buf

  let next lx =
    skip_trivia lx;
    let pos = position lx in
    match peek_char lx with
    | None -> (EOF, pos)
    | Some c ->
      let token =
        if is_lower c then
          let word = read_while lx is_ident_char in
          if String.equal word "not" then NOT else IDENT word
        else if is_upper c then VAR (read_while lx is_ident_char)
        else if is_digit c then INT (read_int lx ~negative:false pos)
        else
          match c with
          | '"' -> STRING (read_string lx)
          | '(' ->
            advance lx;
            LPAREN
          | ')' ->
            advance lx;
            RPAREN
          | ',' ->
            advance lx;
            COMMA
          | '.' ->
            advance lx;
            DOT
          | '-' ->
            advance lx;
            (match peek_char lx with
            | Some d when is_digit d -> INT (read_int lx ~negative:true pos)
            | _ -> raise (Error ("stray '-'", pos)))
          | ':' ->
            advance lx;
            (match peek_char lx with
            | Some '-' ->
              advance lx;
              IF
            | _ -> raise (Error ("expected ':-'", pos)))
          | '?' ->
            advance lx;
            (match peek_char lx with
            | Some '-' ->
              advance lx;
              QUERY
            | _ -> raise (Error ("expected '?-'", pos)))
          | '\\' ->
            advance lx;
            (match peek_char lx with
            | Some '+' ->
              advance lx;
              NOT
            | _ -> raise (Error ("expected '\\+'", pos)))
          | '=' ->
            advance lx;
            EQ
          | '!' ->
            advance lx;
            (match peek_char lx with
            | Some '=' ->
              advance lx;
              NEQ
            | _ -> raise (Error ("expected '!='", pos)))
          | '<' ->
            advance lx;
            (match peek_char lx with
            | Some '=' ->
              advance lx;
              LEQ
            | _ -> LT)
          | '>' ->
            advance lx;
            (match peek_char lx with
            | Some '=' ->
              advance lx;
              GEQ
            | _ -> GT)
          | c -> raise (Error (Printf.sprintf "unexpected character %C" c, pos))
      in
      (token, pos)

  let pp_token ppf = function
    | IDENT s -> Format.fprintf ppf "identifier %s" s
    | VAR s -> Format.fprintf ppf "variable %s" s
    | INT i -> Format.fprintf ppf "integer %d" i
    | STRING s -> Format.fprintf ppf "string %S" s
    | LPAREN -> Format.pp_print_string ppf "'('"
    | RPAREN -> Format.pp_print_string ppf "')'"
    | COMMA -> Format.pp_print_string ppf "','"
    | DOT -> Format.pp_print_string ppf "'.'"
    | IF -> Format.pp_print_string ppf "':-'"
    | QUERY -> Format.pp_print_string ppf "'?-'"
    | NOT -> Format.pp_print_string ppf "'not'"
    | EQ -> Format.pp_print_string ppf "'='"
    | NEQ -> Format.pp_print_string ppf "'!='"
    | LT -> Format.pp_print_string ppf "'<'"
    | LEQ -> Format.pp_print_string ppf "'<='"
    | GT -> Format.pp_print_string ppf "'>'"
    | GEQ -> Format.pp_print_string ppf "'>='"
    | EOF -> Format.pp_print_string ppf "end of input"
end

type parsed = {
  program : Program.t;
  queries : Atom.t list;
}

exception Parse_error of string * Lex.position

type state = {
  lexer : Lex.t;
  mutable tok : Lex.token;
  mutable pos : Lex.position;
}

let init src =
  let lexer = Lex.of_string src in
  let tok, pos = Lex.next lexer in
  { lexer; tok; pos }

let advance st =
  let tok, pos = Lex.next st.lexer in
  st.tok <- tok;
  st.pos <- pos

let fail st msg = raise (Parse_error (msg, st.pos))

let expect st token msg =
  if st.tok = token then advance st else fail st msg

let parse_term st =
  match st.tok with
  | Lex.VAR v ->
    advance st;
    Term.var v
  | Lex.IDENT name ->
    advance st;
    Term.sym name
  | Lex.INT i ->
    advance st;
    Term.int i
  | Lex.STRING s ->
    advance st;
    Term.sym s
  | t -> fail st (Format.asprintf "expected a term, found %a" Lex.pp_token t)

let parse_args st =
  (* caller consumed LPAREN *)
  let rec go acc =
    let t = parse_term st in
    match st.tok with
    | Lex.COMMA ->
      advance st;
      go (t :: acc)
    | Lex.RPAREN ->
      advance st;
      List.rev (t :: acc)
    | tok ->
      fail st (Format.asprintf "expected ',' or ')', found %a" Lex.pp_token tok)
  in
  go []

let parse_atom st =
  match st.tok with
  | Lex.IDENT name ->
    advance st;
    (match st.tok with
    | Lex.LPAREN ->
      advance st;
      Atom.app name (parse_args st)
    | _ -> Atom.app name [])
  | t -> fail st (Format.asprintf "expected an atom, found %a" Lex.pp_token t)

let cmp_of_token = function
  | Lex.EQ -> Some Literal.Eq
  | Lex.NEQ -> Some Literal.Neq
  | Lex.LT -> Some Literal.Lt
  | Lex.LEQ -> Some Literal.Leq
  | Lex.GT -> Some Literal.Gt
  | Lex.GEQ -> Some Literal.Geq
  | _ -> None

let parse_literal st =
  match st.tok with
  | Lex.NOT ->
    advance st;
    Literal.neg (parse_atom st)
  | Lex.VAR _ | Lex.INT _ | Lex.STRING _ ->
    (* must be a comparison *)
    let lhs = parse_term st in
    (match cmp_of_token st.tok with
    | Some op ->
      advance st;
      Literal.cmp op lhs (parse_term st)
    | None ->
      fail st
        (Format.asprintf "expected a comparison operator, found %a"
           Lex.pp_token st.tok))
  | Lex.IDENT name ->
    advance st;
    (match st.tok with
    | Lex.LPAREN ->
      advance st;
      Literal.pos (Atom.app name (parse_args st))
    | tok ->
      (match cmp_of_token tok with
      | Some op ->
        advance st;
        Literal.cmp op (Term.sym name) (parse_term st)
      | None -> Literal.pos (Atom.app name [])))
  | t ->
    fail st (Format.asprintf "expected a body literal, found %a" Lex.pp_token t)

let parse_body st =
  let rec go acc =
    let lit = parse_literal st in
    match st.tok with
    | Lex.COMMA ->
      advance st;
      go (lit :: acc)
    | _ -> List.rev (lit :: acc)
  in
  go []

type item =
  | Item_fact of Atom.t
  | Item_rule of Rule.t
  | Item_query of Atom.t

let parse_item st =
  match st.tok with
  | Lex.QUERY ->
    advance st;
    let goal = parse_atom st in
    expect st Lex.DOT "expected '.' after query";
    Item_query goal
  | _ ->
    let head = parse_atom st in
    (match st.tok with
    | Lex.DOT ->
      advance st;
      if Atom.is_ground head then Item_fact head
      else
        fail st
          (Format.asprintf "fact %a contains variables" Atom.pp head)
    | Lex.IF ->
      advance st;
      let body = parse_body st in
      expect st Lex.DOT "expected '.' at end of rule";
      Item_rule (Rule.make head body)
    | t ->
      fail st (Format.asprintf "expected '.' or ':-', found %a" Lex.pp_token t))

let parse_all st =
  let rec go facts rules queries =
    match st.tok with
    | Lex.EOF ->
      { program = Program.make ~facts:(List.rev facts) (List.rev rules);
        queries = List.rev queries
      }
    | _ -> (
      match parse_item st with
      | Item_fact f -> go (f :: facts) rules queries
      | Item_rule r -> go facts (r :: rules) queries
      | Item_query q -> go facts rules (q :: queries))
  in
  go [] [] []

let parse_string_exn src =
  let st = init src in
  try parse_all st with Lex.Error (msg, pos) -> raise (Parse_error (msg, pos))

let report msg (pos : Lex.position) =
  Printf.sprintf "parse error at line %d, column %d: %s" pos.line pos.col msg

let parse_string src =
  match parse_string_exn src with
  | parsed -> Ok parsed
  | exception Parse_error (msg, pos) -> Error (report msg pos)

open Datalog_ast

type parsed = {
  program : Program.t;
  queries : Atom.t list;
}

exception Parse_error of string * Lexer.position

type state = {
  lexer : Lexer.t;
  mutable tok : Lexer.token;
  mutable pred : Pred.t option;
      (* the last atom's predicate, reused while name and arity repeat *)
}

let init src =
  let lexer = Lexer.of_string src in
  let tok = Lexer.next lexer in
  { lexer; tok; pred = None }

let advance st = st.tok <- Lexer.next st.lexer

let fail st msg = raise (Parse_error (msg, Lexer.position st.lexer))

let expect st token msg =
  if st.tok = token then advance st else fail st msg

let parse_term st =
  match st.tok with
  | Lexer.VAR v ->
    advance st;
    Term.var v
  | Lexer.IDENT name ->
    advance st;
    Term.sym name
  | Lexer.INT i ->
    advance st;
    Term.int i
  | Lexer.STRING s ->
    advance st;
    Term.sym s
  | t -> fail st (Format.asprintf "expected a term, found %a" Lexer.pp_token t)

(* [name/n], interned after the arguments, as [Atom.app] would. *)
let pred_of st name n =
  match st.pred with
  | Some p when Pred.arity p = n && String.equal (Pred.name p) name -> p
  | Some _ | None ->
    let p = Pred.make name n in
    st.pred <- Some p;
    p

(* The arguments from the [i]th on, each held on the stack until the
   closing parenthesis sizes the array they go into. *)
let rec parse_args st i =
  let t = parse_term st in
  match st.tok with
  | Lexer.COMMA ->
    advance st;
    let args = parse_args st (i + 1) in
    args.(i) <- t;
    args
  | Lexer.RPAREN ->
    advance st;
    Array.make (i + 1) t
  | tok ->
    fail st (Format.asprintf "expected ',' or ')', found %a" Lexer.pp_token tok)

(* The atom [name(...)]; the caller consumed LPAREN. *)
let parse_app st name =
  let args = parse_args st 0 in
  Atom.make (pred_of st name (Array.length args)) args

let parse_atom st =
  match st.tok with
  | Lexer.IDENT name ->
    advance st;
    (match st.tok with
    | Lexer.LPAREN ->
      advance st;
      parse_app st name
    | _ -> Atom.make (pred_of st name 0) [||])
  | t -> fail st (Format.asprintf "expected an atom, found %a" Lexer.pp_token t)

let cmp_of_token = function
  | Lexer.EQ -> Some Literal.Eq
  | Lexer.NEQ -> Some Literal.Neq
  | Lexer.LT -> Some Literal.Lt
  | Lexer.LEQ -> Some Literal.Leq
  | Lexer.GT -> Some Literal.Gt
  | Lexer.GEQ -> Some Literal.Geq
  | _ -> None

let parse_literal st =
  match st.tok with
  | Lexer.NOT ->
    advance st;
    Literal.neg (parse_atom st)
  | Lexer.VAR _ | Lexer.INT _ | Lexer.STRING _ ->
    (* must be a comparison *)
    let lhs = parse_term st in
    (match cmp_of_token st.tok with
    | Some op ->
      advance st;
      Literal.cmp op lhs (parse_term st)
    | None ->
      fail st
        (Format.asprintf "expected a comparison operator, found %a"
           Lexer.pp_token st.tok))
  | Lexer.IDENT name ->
    advance st;
    (match st.tok with
    | Lexer.LPAREN ->
      advance st;
      Literal.pos (parse_app st name)
    | tok ->
      (match cmp_of_token tok with
      | Some op ->
        advance st;
        Literal.cmp op (Term.sym name) (parse_term st)
      | None -> Literal.pos (Atom.make (pred_of st name 0) [||])))
  | t ->
    fail st (Format.asprintf "expected a body literal, found %a" Lexer.pp_token t)

let parse_body st =
  let rec go acc =
    let lit = parse_literal st in
    match st.tok with
    | Lexer.COMMA ->
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
  | Lexer.QUERY ->
    advance st;
    let goal = parse_atom st in
    expect st Lexer.DOT "expected '.' after query";
    Item_query goal
  | _ ->
    let head = parse_atom st in
    (match st.tok with
    | Lexer.DOT ->
      advance st;
      if Atom.is_ground head then Item_fact head
      else
        fail st
          (Format.asprintf "fact %a contains variables" Atom.pp head)
    | Lexer.IF ->
      advance st;
      let body = parse_body st in
      expect st Lexer.DOT "expected '.' at end of rule";
      Item_rule (Rule.make head body)
    | t ->
      fail st (Format.asprintf "expected '.' or ':-', found %a" Lexer.pp_token t))

let parse_all st =
  let rec go facts rules queries =
    match st.tok with
    | Lexer.EOF ->
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

(* [f] over a fresh parser state, with lexer errors (the first token's
   too) raised as [Parse_error]. *)
let parsing src f =
  try f (init src) with Lexer.Error (msg, pos) -> raise (Parse_error (msg, pos))

let parse_string_exn src = parsing src parse_all

let report msg (pos : Lexer.position) =
  Printf.sprintf "parse error at line %d, column %d: %s" pos.line pos.col msg

let parse_string src =
  match parse_string_exn src with
  | parsed -> Ok parsed
  | exception Parse_error (msg, pos) -> Error (report msg pos)

let parse_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | src -> parse_string src
  | exception Sys_error msg -> Error msg

let program_of_string src = (parse_string_exn src).program

let rule_of_string src =
  parsing src (fun st ->
      match parse_item st, st.tok with
      | Item_rule r, Lexer.EOF -> r
      | Item_fact f, Lexer.EOF -> Rule.fact f
      | Item_query _, _ -> fail st "expected a clause, found a query"
      | _, _ -> fail st "trailing input after clause")

let atom_of_string src =
  parsing src (fun st ->
      let atom = parse_atom st in
      if st.tok = Lexer.DOT then advance st;
      match st.tok with
      | Lexer.EOF -> atom
      | t ->
        fail st (Format.asprintf "trailing input after atom: %a" Lexer.pp_token t))

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

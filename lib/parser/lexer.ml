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

(* The scanner works on offsets into [src], read with [unsafe_get] behind
   an explicit [pos < len] test.  Where the token [next] last returned
   starts is kept in two int fields, so a [position] record exists only
   when an error or a caller asks for one. *)
type t = {
  src : string;
  len : int;
  mutable pos : int;
  mutable line : int;
  mutable bol : int;  (* offset of beginning of current line *)
  mutable tok_line : int;
  mutable tok_col : int;
}

let of_string src =
  { src;
    len = String.length src;
    pos = 0;
    line = 1;
    bol = 0;
    tok_line = 1;
    tok_col = 1
  }

let position lx = { line = lx.tok_line; col = lx.tok_col }

let error lx msg = raise (Error (msg, position lx))

let is_digit c = c >= '0' && c <= '9'

let is_ident_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '_' | '0' .. '9' -> true
  | _ -> false

(* ['\000'] past the end: no token continues with it. *)
let char_at lx i = if i < lx.len then String.unsafe_get lx.src i else '\000'

(* [i] is the offset of a '\n' being consumed. *)
let newline lx i =
  lx.line <- lx.line + 1;
  lx.bol <- i + 1

let rec skip_trivia lx =
  if lx.pos < lx.len then
    match String.unsafe_get lx.src lx.pos with
    | ' ' | '\t' | '\r' ->
      lx.pos <- lx.pos + 1;
      skip_trivia lx
    | '\n' ->
      newline lx lx.pos;
      lx.pos <- lx.pos + 1;
      skip_trivia lx
    | '%' ->
      let i = ref lx.pos in
      while !i < lx.len && String.unsafe_get lx.src !i <> '\n' do
        incr i
      done;
      lx.pos <- !i;
      skip_trivia lx
    | _ -> ()

let ident_end lx i =
  let i = ref i in
  while !i < lx.len && is_ident_char (String.unsafe_get lx.src !i) do
    incr i
  done;
  !i

let read_ident lx =
  let start = lx.pos in
  lx.pos <- ident_end lx (start + 1);
  let n = lx.pos - start in
  if n = 3
     && String.unsafe_get lx.src start = 'n'
     && String.unsafe_get lx.src (start + 1) = 'o'
     && String.unsafe_get lx.src (start + 2) = 't'
  then NOT
  else IDENT (String.sub lx.src start n)

let near_min = (min_int + 9) / 10

(* An integer literal read in place from [pos], negated digit by digit
   (so [min_int], whose magnitude is no int, reads too); an error is
   reported where the token starts, a leading '-' included. *)
let read_int lx ~negative =
  let v = ref 0 in
  while lx.pos < lx.len && is_digit (String.unsafe_get lx.src lx.pos) do
    let d = Char.code (String.unsafe_get lx.src lx.pos) - Char.code '0' in
    (* no division unless [v] is within a digit of overflowing *)
    if !v < near_min && !v < (min_int + d) / 10 then
      error lx "integer literal out of range";
    v := (!v * 10) - d;
    lx.pos <- lx.pos + 1
  done;
  if negative then INT !v
  else if !v = min_int then error lx "integer literal out of range"
  else INT (- !v)

(* From the character after an escape's backslash on, into [buf]. *)
let rec read_escaped lx buf i =
  if i >= lx.len then error lx "unterminated string literal"
  else
    match String.unsafe_get lx.src i with
    | '"' ->
      lx.pos <- i + 1;
      STRING (Buffer.contents buf)
    | '\\' ->
      if i + 1 >= lx.len then error lx "unterminated escape";
      (match String.unsafe_get lx.src (i + 1) with
      | 'n' -> Buffer.add_char buf '\n'
      | 't' -> Buffer.add_char buf '\t'
      | c ->
        if c = '\n' then newline lx (i + 1);
        Buffer.add_char buf c);
      read_escaped lx buf (i + 2)
    | c ->
      if c = '\n' then newline lx i;
      Buffer.add_char buf c;
      read_escaped lx buf (i + 1)

(* A string without escapes is one [String.sub]; the first backslash
   moves the rest of the literal into a buffer. *)
let rec read_string lx start i =
  if i >= lx.len then error lx "unterminated string literal"
  else
    match String.unsafe_get lx.src i with
    | '"' ->
      lx.pos <- i + 1;
      STRING (String.sub lx.src start (i - start))
    | '\\' ->
      let buf = Buffer.create (2 * (i - start) + 16) in
      Buffer.add_substring buf lx.src start (i - start);
      read_escaped lx buf i
    | c ->
      if c = '\n' then newline lx i;
      read_string lx start (i + 1)

(* A two-character token whose second character is [second]. *)
let pair lx second token msg =
  if char_at lx (lx.pos + 1) = second then begin
    lx.pos <- lx.pos + 2;
    token
  end
  else error lx msg

(* [first] alone, or [longer] when '=' follows. *)
let with_eq lx first longer =
  if char_at lx (lx.pos + 1) = '=' then begin
    lx.pos <- lx.pos + 2;
    longer
  end
  else begin
    lx.pos <- lx.pos + 1;
    first
  end

let single lx token =
  lx.pos <- lx.pos + 1;
  token

let next lx =
  skip_trivia lx;
  lx.tok_line <- lx.line;
  lx.tok_col <- lx.pos - lx.bol + 1;
  if lx.pos >= lx.len then EOF
  else
    match String.unsafe_get lx.src lx.pos with
    | 'a' .. 'z' -> read_ident lx
    | 'A' .. 'Z' | '_' ->
      let start = lx.pos in
      lx.pos <- ident_end lx (start + 1);
      VAR (String.sub lx.src start (lx.pos - start))
    | '0' .. '9' -> read_int lx ~negative:false
    | '"' -> read_string lx (lx.pos + 1) (lx.pos + 1)
    | '(' -> single lx LPAREN
    | ')' -> single lx RPAREN
    | ',' -> single lx COMMA
    | '.' -> single lx DOT
    | '=' -> single lx EQ
    | '-' ->
      if is_digit (char_at lx (lx.pos + 1)) then begin
        lx.pos <- lx.pos + 1;
        read_int lx ~negative:true
      end
      else error lx "stray '-'"
    | ':' -> pair lx '-' IF "expected ':-'"
    | '?' -> pair lx '-' QUERY "expected '?-'"
    | '\\' -> pair lx '+' NOT "expected '\\+'"
    | '!' -> pair lx '=' NEQ "expected '!='"
    | '<' -> with_eq lx LT LEQ
    | '>' -> with_eq lx GT GEQ
    | c -> error lx (Printf.sprintf "unexpected character %C" c)

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

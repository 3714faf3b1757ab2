(* Lexer and parser tests: token classification, clause/query parsing,
   error reporting, and print/parse round-trips. *)

open Datalog_ast
module P = Datalog_parser.Parser
module L = Datalog_parser.Lexer

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let tokens_of s =
  let lx = L.of_string s in
  let rec go acc =
    match L.next lx with
    | L.EOF, _ -> List.rev acc
    | t, _ -> go (t :: acc)
  in
  go []

let test_lexer_idents () =
  check tbool "kinds" true
    (tokens_of "foo Bar _x 42 -7"
    = [ L.IDENT "foo"; L.VAR "Bar"; L.VAR "_x"; L.INT 42; L.INT (-7) ])

let test_lexer_punctuation () =
  check tbool "punctuation" true
    (tokens_of "( ) , . :- ?- = != < <= > >="
    = [ L.LPAREN; L.RPAREN; L.COMMA; L.DOT; L.IF; L.QUERY; L.EQ; L.NEQ;
        L.LT; L.LEQ; L.GT; L.GEQ ])

let test_lexer_not_variants () =
  check tbool "not keyword" true (tokens_of "not \\+" = [ L.NOT; L.NOT ])

let test_lexer_comments () =
  check tbool "comments skipped" true
    (tokens_of "a % rest of line\nb" = [ L.IDENT "a"; L.IDENT "b" ])

let test_lexer_strings () =
  check tbool "string literal" true
    (tokens_of {|"hello world" "esc\"aped"|}
    = [ L.STRING "hello world"; L.STRING "esc\"aped" ])

let test_lexer_positions () =
  let lx = L.of_string "a\n  b" in
  let _, p1 = L.next lx in
  let _, p2 = L.next lx in
  check tint "line 1" 1 p1.L.line;
  check tint "line 2" 2 p2.L.line;
  check tint "col 3" 3 p2.L.col

let test_lexer_int_range () =
  check tbool "max_int and min_int" true
    (tokens_of "4611686018427387903 -4611686018427387904"
    = [ L.INT max_int; L.INT min_int ]);
  let out_of_range src col =
    Alcotest.check_raises src
      (L.Error ("integer literal out of range", { L.line = 1; col }))
      (fun () -> ignore (tokens_of src))
  in
  out_of_range "4611686018427387904" 1;
  out_of_range "  -4611686018427387905" 3;
  out_of_range "p(99999999999999999999)" 3;
  (match P.parse_string "p(1).\nq(99999999999999999999)." with
  | Ok _ -> Alcotest.fail "an out-of-range literal must not parse"
  | Error msg ->
    check tbool "reported at the literal" true
      (contains ~sub:"line 2, column 3: integer literal out of range" msg));
  match P.parse_string "p(-4611686018427387904)." with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail msg

let test_lexer_error () =
  let lx = L.of_string "p(x) @ q" in
  let rec exhaust () = match L.next lx with L.EOF, _ -> () | _ -> exhaust () in
  Alcotest.check_raises "bad char" (L.Error ("unexpected character '@'", { L.line = 1; col = 6 }))
    exhaust

let test_parse_fact_rule_query () =
  let parsed =
    P.parse_string_exn
      "edge(1, 2). anc(X, Y) :- edge(X, Y). ?- anc(1, X)."
  in
  check tint "one fact" 1 (Program.num_facts parsed.P.program);
  check tint "one rule" 1 (Program.num_rules parsed.P.program);
  check tint "one query" 1 (List.length parsed.P.queries)

let test_parse_negation_and_builtins () =
  let r = P.rule_of_string "p(X) :- q(X, Y), not r(Y), Y != 3, X <= Y." in
  check tint "body length" 4 (List.length (Rule.body r));
  match Rule.body r with
  | [ Literal.Pos _; Literal.Neg _; Literal.Cmp (Literal.Neq, _, _);
      Literal.Cmp (Literal.Leq, _, _) ] ->
    ()
  | _ -> Alcotest.fail "unexpected body shape"

let test_parse_zero_arity () =
  let r = P.rule_of_string "alarm :- smoke, not drill." in
  check tint "atoms parsed" 1 (List.length (Rule.positive_body r));
  check tbool "0-ary head" true (Atom.arity (Rule.head r) = 0)

let test_parse_const_comparison () =
  (* an IDENT followed by a comparison operator is a constant term *)
  let r = P.rule_of_string "p(X) :- q(X, Y), Y = a." in
  match List.rev (Rule.body r) with
  | Literal.Cmp (Literal.Eq, Term.Var "Y", Term.Const c) :: _ ->
    check tbool "rhs is constant a" true (Value.equal c (Value.sym "a"))
  | _ -> Alcotest.fail "expected comparison with constant"

let test_parse_nonground_fact_rejected () =
  match P.parse_string "p(X)." with
  | Error msg ->
    check tbool "mentions variables" true (contains ~sub:"contains variables" msg)
  | Ok _ -> Alcotest.fail "non-ground fact accepted"

let test_parse_error_position () =
  match P.parse_string "p(1).\nq(2) :- ." with
  | Error msg -> check tbool "line 2 reported" true (contains ~sub:"line 2" msg)
  | Ok _ -> Alcotest.fail "should fail"

let test_roundtrip () =
  let src =
    "anc(X, Y) :- edge(X, Y).\n\
     anc(X, Y) :- edge(X, Z), anc(Z, Y).\n\
     win(X) :- move(X, Y), not win(Y).\n\
     big(X) :- size(X, N), N >= 100.\n\
     edge(1, 2).\n\
     edge(ann, bob)."
  in
  let p1 = P.program_of_string src in
  let printed = Format.asprintf "%a" Program.pp p1 in
  let p2 = P.program_of_string printed in
  check tbool "print/parse round-trip" true
    (List.equal Rule.equal (Program.rules p1) (Program.rules p2)
    && List.equal Atom.equal (Program.facts p1) (Program.facts p2))

let test_queries_order () =
  let parsed = P.parse_string_exn "?- a(1). ?- b(2). ?- c(3)." in
  check (Alcotest.list Alcotest.string) "source order"
    [ "a"; "b"; "c" ]
    (List.map (fun q -> Pred.name (Atom.pred q)) parsed.P.queries)

let suite =
  [ ( "parser",
      [ Alcotest.test_case "lexer idents" `Quick test_lexer_idents;
        Alcotest.test_case "lexer punctuation" `Quick test_lexer_punctuation;
        Alcotest.test_case "lexer not" `Quick test_lexer_not_variants;
        Alcotest.test_case "lexer comments" `Quick test_lexer_comments;
        Alcotest.test_case "lexer strings" `Quick test_lexer_strings;
        Alcotest.test_case "lexer positions" `Quick test_lexer_positions;
        Alcotest.test_case "lexer error" `Quick test_lexer_error;
        Alcotest.test_case "integer literal range" `Quick test_lexer_int_range;
        Alcotest.test_case "fact/rule/query" `Quick test_parse_fact_rule_query;
        Alcotest.test_case "negation and builtins" `Quick
          test_parse_negation_and_builtins;
        Alcotest.test_case "zero arity" `Quick test_parse_zero_arity;
        Alcotest.test_case "constant comparison" `Quick
          test_parse_const_comparison;
        Alcotest.test_case "non-ground fact" `Quick
          test_parse_nonground_fact_rejected;
        Alcotest.test_case "error position" `Quick test_parse_error_position;
        Alcotest.test_case "round-trip" `Quick test_roundtrip;
        Alcotest.test_case "query order" `Quick test_queries_order
      ] )
  ]

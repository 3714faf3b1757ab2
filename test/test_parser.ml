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
    | L.EOF -> List.rev acc
    | t -> go (t :: acc)
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
  let p0 = L.position lx in
  let p1 = (ignore (L.next lx); L.position lx) in
  let p2 = (ignore (L.next lx); L.position lx) in
  check tbool "before the first token" true (p0 = { L.line = 1; col = 1 });
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
  let rec exhaust () = match L.next lx with L.EOF -> () | _ -> exhaust () in
  Alcotest.check_raises "bad char" (L.Error ("unexpected character '@'", { L.line = 1; col = 6 }))
    exhaust

(* Every token with the line and column it starts at. *)
let tokens_at s =
  let lx = L.of_string s in
  let rec go acc =
    let t = L.next lx in
    let p = L.position lx in
    if t = L.EOF then List.rev ((t, p.L.line, p.L.col) :: acc)
    else go ((t, p.L.line, p.L.col) :: acc)
  in
  go []

let tokens_at_t =
  Alcotest.testable
    (Fmt.Dump.list (fun ppf (t, l, c) -> Fmt.pf ppf "%a@%d:%d" L.pp_token t l c))
    ( = )

(* The message and position of the first lexer error in [s]. *)
let lex_error s =
  match tokens_at s with
  | _ -> Alcotest.failf "%S lexes without an error" s
  | exception L.Error (msg, p) -> (msg, p.L.line, p.L.col)

let error_t = Alcotest.(triple string int int)

(* Each error branch of the lexer and the parser, with its exact message
   and position. *)
let test_lexer_error_messages () =
  List.iter
    (fun (src, msg, line, col) ->
      check error_t (String.escaped src) (msg, line, col) (lex_error src))
    [ ("p(- 1)", "stray '-'", 1, 3);
      ("p(-)", "stray '-'", 1, 3);
      ("p :x", "expected ':-'", 1, 3);
      ("p :", "expected ':-'", 1, 3);
      ("?x", "expected '?-'", 1, 1);
      ("\n  ?", "expected '?-'", 2, 3);
      ("X ! 1", "expected '!='", 1, 3);
      ("X !", "expected '!='", 1, 3);
      ("p :- \\x", "expected '\\+'", 1, 6);
      ("p :- \\", "expected '\\+'", 1, 6);
      ("p(\"abc", "unterminated string literal", 1, 3);
      ("p(\"a\nb", "unterminated string literal", 1, 3);
      ("p(\"ab\\", "unterminated escape", 1, 3);
      ("x\n  p(\"a\\\nb\\", "unterminated escape", 2, 5);
      ("p(#)", "unexpected character '#'", 1, 3);
      ("p(x) @ q", "unexpected character '@'", 1, 6);
      ("p(\x01)", "unexpected character '\\001'", 1, 3);
      ("4611686018427387904", "integer literal out of range", 1, 1);
      ("\t-4611686018427387905", "integer literal out of range", 1, 2);
      ("p(1,\n 99999999999999999999)", "integer literal out of range", 2, 2)
    ]

let test_parser_error_messages () =
  List.iter
    (fun (src, expected) ->
      match P.parse_string src with
      | Ok _ -> Alcotest.failf "%S parses" src
      | Error msg -> check Alcotest.string (String.escaped src) expected msg)
    [ ("p(X).", "parse error at line 1, column 6: fact p(X) contains variables");
      ("p(a, Y).\nq(1).",
       "parse error at line 2, column 1: fact p(a, Y) contains variables");
      ("?- p(X) q(X).", "parse error at line 1, column 9: expected '.' after query");
      ("?- p(X)", "parse error at line 1, column 8: expected '.' after query");
      ("p(X) :- q(X) r(X).",
       "parse error at line 1, column 14: expected '.' at end of rule");
      ("p(X) :- q(X)", "parse error at line 1, column 13: expected '.' at end of rule");
      ("p(1) q(2).",
       "parse error at line 1, column 6: expected '.' or ':-', found identifier q");
      ("p(1)", "parse error at line 1, column 5: expected '.' or ':-', found end of input");
      ("p(1, ).", "parse error at line 1, column 6: expected a term, found ')'");
      ("p(1 2).", "parse error at line 1, column 5: expected ',' or ')', found integer 2");
      ("?- X.", "parse error at line 1, column 4: expected an atom, found variable X");
      ("p :- X q.",
       "parse error at line 1, column 8: expected a comparison operator, found identifier q");
      ("p :- (q).", "parse error at line 1, column 6: expected a body literal, found '('");
      ("p :- not X.", "parse error at line 1, column 10: expected an atom, found variable X");
      ("p(- 1).", "parse error at line 1, column 3: stray '-'");
      ("p(1).\n\"ab", "parse error at line 2, column 1: unterminated string literal");
      ("p(1).\r\nq(4611686018427387904).",
       "parse error at line 2, column 3: integer literal out of range");
      ("p(1). % no newline at the end\n\tq(#).",
       "parse error at line 2, column 4: unexpected character '#'")
    ]

(* Positions after CRLF line ends, tabs, a comment at end of input with
   no newline, and strings holding an escaped or a raw newline. *)
let test_lexer_trivia_positions () =
  check tokens_at_t "CRLF"
    [ (L.IDENT "a", 1, 1); (L.DOT, 1, 2); (L.IDENT "b", 2, 1); (L.DOT, 2, 2);
      (L.EOF, 3, 1) ]
    (tokens_at "a.\r\nb.\r\n");
  check tokens_at_t "tabs count one column"
    [ (L.IDENT "p", 1, 2); (L.LPAREN, 1, 3); (L.INT 1, 1, 5); (L.RPAREN, 1, 6);
      (L.EOF, 1, 7) ]
    (tokens_at "\tp(\t1)");
  check tokens_at_t "comment at end of input"
    [ (L.IDENT "p", 1, 1); (L.DOT, 1, 2); (L.EOF, 1, 10) ]
    (tokens_at "p. % last");
  check tokens_at_t "comment only" [ (L.EOF, 1, 4) ] (tokens_at "%\r\t");
  check tokens_at_t "escaped newline in a string"
    [ (L.STRING "a\nb", 1, 1); (L.IDENT "c", 2, 4); (L.EOF, 2, 5) ]
    (tokens_at "\"a\\\nb\" c");
  check tokens_at_t "raw newline in a string"
    [ (L.IDENT "x", 1, 1); (L.STRING "a\nbc", 1, 3); (L.VAR "Y", 2, 5);
      (L.EOF, 2, 6) ]
    (tokens_at "x \"a\nbc\" Y");
  check tokens_at_t "escapes"
    [ (L.STRING "t\tn\nq\"s\\z", 1, 1); (L.NOT, 1, 18); (L.NOT, 1, 21);
      (L.EOF, 1, 24) ]
    (tokens_at "\"t\\tn\\nq\\\"s\\\\\\z\" \\+ not")

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

(* Symbols are interned in the order the old parser interned them, an
   atom's arguments left to right and then its predicate, so symbol ids
   and the answer order that follows them do not change. *)
let test_interning_order () =
  let tag = Printf.sprintf "io%d_" (Symbol.interned_count ()) in
  let src =
    Printf.sprintf "%sp(%sa, %sb). %sp(%sc, %sa). %sq :- %sp(%sd, Y)." tag tag
      tag tag tag tag tag tag tag
  in
  ignore (P.parse_string_exn src);
  let ids = List.map (fun n -> Symbol.id (Symbol.intern (tag ^ n))) in
  check (Alcotest.list tint) "interning order"
    (List.sort compare (ids [ "a"; "b"; "p"; "c"; "q"; "d" ]))
    (ids [ "a"; "b"; "p"; "c"; "q"; "d" ])

let parse_error_t = Alcotest.(pair string (pair int int))

let parse_error f src =
  match f src with
  | _ -> Alcotest.failf "%S parses" src
  | exception P.Parse_error (msg, p) -> (msg, (p.L.line, p.L.col))

(* After its optional dot, a goal must end: nothing may follow. *)
let test_atom_trailing_input () =
  let ok src = check tbool src true (Atom.equal (P.atom_of_string src) (P.atom_of_string "par(128, X)")) in
  ok "par(128, X)";
  ok "par(128, X).";
  ok "  par(128, X) . % a comment\n";
  List.iter
    (fun (src, expected) ->
      check parse_error_t src expected (parse_error P.atom_of_string src))
    [ ("par(128, X). garbage ((", ("trailing input after atom: identifier garbage", (1, 14)));
      ("par(128, X) q", ("trailing input after atom: identifier q", (1, 13)));
      ("par(128, X)..", ("trailing input after atom: '.'", (1, 13)));
      ("par(128, X). #", ("unexpected character '#'", (1, 14)));
      ("p(1) :- q", ("trailing input after atom: ':-'", (1, 6)))
    ]

(* A lexer error in the very first token is a parse error like any
   other, from every entry point. *)
let test_first_token_error () =
  check (Alcotest.result Alcotest.reject Alcotest.string) "whole program"
    (Error "parse error at line 1, column 1: unexpected character '#'")
    (Result.map ignore (P.parse_string "#foo."));
  check parse_error_t "atom" ("unterminated string literal", (1, 3))
    (parse_error P.atom_of_string "  \"p");
  check parse_error_t "rule" ("stray '-'", (2, 1))
    (parse_error P.rule_of_string "\n- p :- q.")

let test_queries_order () =
  let parsed = P.parse_string_exn "?- a(1). ?- b(2). ?- c(3)." in
  check (Alcotest.list Alcotest.string) "source order"
    [ "a"; "b"; "c" ]
    (List.map (fun q -> Pred.name (Atom.pred q)) parsed.P.queries)

(* ------------------------------------------------------------------ *)
(* The parser against the parser it replaced (parser_oracle.ml)

   Programs come from the shared generators, rendered with [Program.pp]
   and followed by queries; a second pass splices in the lexical forms
   [Program.pp] never prints (comments, CRLF line ends, tabs, quoted
   strings with escapes, symbols, integers at the int bounds, [\\+]).
   Both parsers must return the same rules, facts and queries, in order,
   or the same error string. *)

module Oracle = Parser_oracle

(* The old parser let a lexer error in the first token escape as
   [Lexer.Error]; it is the same report. *)
let oracle_parse src =
  match Oracle.parse_string src with
  | r -> Result.map (fun p -> (p.Oracle.program, p.Oracle.queries)) r
  | exception Oracle.Lex.Error (msg, pos) -> Error (Oracle.report msg pos)

let new_parse src =
  Result.map (fun p -> (p.P.program, p.P.queries)) (P.parse_string src)

(* [Ok ()], or what differs between [parse src] and the oracle's. *)
let agree parse src =
  match (parse src, oracle_parse src) with
  | Ok (p, qs), Ok (op, oqs) ->
    if not (List.equal Rule.equal (Program.rules p) (Program.rules op)) then
      Error "rules differ"
    else if not (List.equal Atom.equal (Program.facts p) (Program.facts op)) then
      Error "facts differ"
    else if not (List.equal Atom.equal qs oqs) then Error "queries differ"
    else Ok ()
  | Error e, Error oe when String.equal e oe -> Ok ()
  | Error e, Error oe -> Error (Printf.sprintf "errors differ: %S vs %S" e oe)
  | Ok _, Error oe -> Error ("only the oracle refuses: " ^ oe)
  | Error e, Ok _ -> Error ("only the new parser refuses: " ^ e)

let lexical_forms =
  [| "% a comment\n"; "%"; "\r\n"; "\t"; " "; "\n";
     "s(\"a b\", \"q\\\"t\\\\\", \"\\n\\t\\x\").\n";
     "s(\"line\nbreak\").\n"; "s(\"esc\\\nnl\").\n";
     "big(4611686018427387903, -4611686018427387904).\n";
     "big(-0, 007, -12).\n"; "w(X) :- e(X, Y), \\+ w(Y), X != Y, X <= 3.\n";
     "nothing(not_a, nota, note).\n"; "z. z :- y. ?- z.\n";
     "c(X) :- e(X, Y), Y = abc, abc < Y, \"s\" >= X.\n";
     "?- e(1, X).\n"; "?- big(X, -4).\n" |]

let mutation_bytes = "(),.:-?!\\+=<>\"%\r\n\t 0123456789azAZ_#\x00\xff"

let render rng program =
  let queries =
    List.filter_map
      (fun (p, _) ->
        if Random.State.bool rng then None
        else
          Some
            (Atom.make p
               (Array.init (Pred.arity p) (fun i ->
                    if i = 0 then Term.int (Random.State.int rng 6)
                    else Term.var "X"))))
      (Program.fact_groups program)
  in
  Format.asprintf "%a@.%a" Program.pp program
    (Format.pp_print_list (fun ppf q -> Format.fprintf ppf "?- %a." Atom.pp q))
    queries

(* Lexical forms spliced in at line starts. *)
let decorate rng text =
  String.split_on_char '\n' text
  |> List.concat_map (fun line ->
         if Random.State.int rng 3 = 0 then
           [ lexical_forms.(Random.State.int rng (Array.length lexical_forms)) ^ line ]
         else [ line ])
  |> String.concat (if Random.State.int rng 4 = 0 then "\r\n" else "\n")

let mutate rng text =
  let n = String.length text in
  let pos () = Random.State.int rng (n + 1) in
  let byte () =
    String.make 1 mutation_bytes.[Random.State.int rng (String.length mutation_bytes)]
  in
  let cut a b = String.sub text a (b - a) in
  match Random.State.int rng 5 with
  | 0 -> let i = pos () in cut 0 i ^ byte () ^ cut i n
  | 1 when n > 0 -> let i = Random.State.int rng n in cut 0 i ^ byte () ^ cut (i + 1) n
  | 2 when n > 0 -> let i = Random.State.int rng n in cut 0 i ^ cut (i + 1) n
  | 3 -> cut 0 (pos ())
  | _ ->
    let i = pos () in
    let j = i + Random.State.int rng (n - i + 1) in
    cut 0 j ^ cut i n

let gen_program rng =
  let gen =
    match Random.State.int rng 3 with
    | 0 -> Gen.positive_program_gen
    | 1 -> Gen.stratified_program_gen
    | _ -> Gen.unstratified_program_gen
  in
  decorate rng (render rng (QCheck.Gen.generate1 ~rand:rng gen))

let gen_mutant rng =
  let text = ref (gen_program rng) in
  for _ = 0 to Random.State.int rng 3 do
    text := mutate rng !text
  done;
  !text

let agree_or_report src =
  match agree new_parse src with
  | Ok () -> true
  | Error why -> QCheck.Test.fail_reportf "%s on@.%S" why src

let prop_parsers_agree =
  QCheck.Test.make ~name:"parser = old parser on rendered programs" ~count:300
    (QCheck.make QCheck.Gen.(int_bound 1_000_000))
    (fun seed -> agree_or_report (gen_program (Random.State.make [| 0x9a5e; seed |])))

let prop_parsers_agree_mutated =
  QCheck.Test.make ~name:"parser = old parser on mutated programs" ~count:2000
    (QCheck.make QCheck.Gen.(int_bound 1_000_000))
    (fun seed -> agree_or_report (gen_mutant (Random.State.make [| 0xbad5; seed |])))

(* The comparison has teeth: a parser that reports every error one
   column to the right is caught on the mutants. *)
let test_agree_catches_shifted_columns () =
  let shifted src =
    Result.map_error
      (fun msg ->
        Scanf.sscanf msg "parse error at line %d, column %d: %s@\000"
          (fun l c rest ->
            Printf.sprintf "parse error at line %d, column %d: %s" l (c + 1) rest))
      (new_parse src)
  in
  let rng = Random.State.make [| 0x5417 |] in
  let mutants = List.init 200 (fun _ -> gen_mutant rng) in
  let caught = List.filter (fun src -> Result.is_error (agree shifted src)) mutants in
  let refused = List.filter (fun src -> Result.is_error (new_parse src)) mutants in
  check tbool "some mutants are refused" true (refused <> []);
  check tint "every refusal is caught" (List.length refused) (List.length caught)

(* Every group holds its predicate's facts in program order, the groups
   in the order of the predicates' first facts. *)
let prop_fact_groups =
  QCheck.Test.make ~name:"fact groups = facts by first appearance" ~count:200
    (QCheck.make QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Random.State.make [| 0x6709; seed |] in
      match new_parse (gen_program rng) with
      | Error _ -> true
      | Ok (program, _) ->
        let facts = Program.facts program in
        let firsts =
          List.fold_left
            (fun acc a ->
              if List.exists (Pred.equal (Atom.pred a)) acc then acc
              else acc @ [ Atom.pred a ])
            [] facts
        in
        let expected =
          List.map
            (fun p -> (p, List.filter (fun a -> Pred.equal (Atom.pred a) p) facts))
            firsts
        in
        List.equal
          (fun (p, xs) (q, ys) -> Pred.equal p q && List.equal Atom.equal xs ys)
          expected (Program.fact_groups program))

(* A 9,000-fact file of random arcs, the shape of a loaded EDB: parsing
   it (the program's fact groups included) allocates at most 60 minor
   words per fact. *)
let test_parse_allocation () =
  let n = 9_000 in
  let rng = Random.State.make [| 9000 |] in
  let buf = Buffer.create (n * 20) in
  Buffer.add_string buf "anc(X, Y) :- par(X, Y).\nanc(X, Y) :- par(X, Z), anc(Z, Y).\n";
  for _ = 1 to n do
    Printf.bprintf buf "par(%d, %d).\n"
      (1 + Random.State.int rng 10_000)
      (1 + Random.State.int rng 10_000)
  done;
  for k = 1 to 40 do
    Printf.bprintf buf "?- anc(%d, X).\n" k
  done;
  let src = Buffer.contents buf in
  let words () =
    let before = Gc.minor_words () in
    let parsed = P.parse_string_exn src in
    let after = Gc.minor_words () in
    check tint "all facts" n (Program.num_facts parsed.P.program);
    after -. before
  in
  ignore (words ());
  let per_fact = words () /. float n in
  if per_fact > 60.0 then
    Alcotest.failf "%.1f minor words per fact (at most 60)" per_fact

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
        Alcotest.test_case "lexer error messages" `Quick
          test_lexer_error_messages;
        Alcotest.test_case "parser error messages" `Quick
          test_parser_error_messages;
        Alcotest.test_case "positions after trivia" `Quick
          test_lexer_trivia_positions;
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
        Alcotest.test_case "query order" `Quick test_queries_order;
        Alcotest.test_case "symbol interning order" `Quick
          test_interning_order;
        Alcotest.test_case "trailing input after a goal" `Quick
          test_atom_trailing_input;
        Alcotest.test_case "error in the first token" `Quick
          test_first_token_error;
        Alcotest.test_case "differential check catches shifted columns" `Quick
          test_agree_catches_shifted_columns;
        Alcotest.test_case "parse allocation per fact" `Quick
          test_parse_allocation;
        QCheck_alcotest.to_alcotest prop_parsers_agree;
        QCheck_alcotest.to_alcotest prop_parsers_agree_mutated;
        QCheck_alcotest.to_alcotest prop_fact_groups
      ] )
  ]

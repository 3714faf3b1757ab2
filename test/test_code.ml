(* The dictionary encoding at the bottom of the runtime: every ground
   value maps to one immutable int, injectively, with decoding exact —
   including ints too large for the arithmetic (odd-code) embedding,
   which go through the process-wide side dictionary. *)

open Datalog_ast

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let test_small_ints_are_arithmetic () =
  (* in-range ints encode as 2i+1: no dictionary traffic *)
  let before = Code.dictionary_size () in
  List.iter
    (fun i ->
      let c = Code.of_int i in
      check tbool "odd" true (c = (i lsl 1) lor 1);
      check tbool "is_int" true (Code.is_int c);
      check tint "decodes" i (Code.to_int c))
    [ 0; 1; -1; 42; -1000; max_int asr 1; min_int asr 1 ];
  check tint "no dictionary growth" before (Code.dictionary_size ())

let test_big_ints_go_through_dictionary () =
  let before = Code.dictionary_size () in
  let big = max_int asr 1 in
  List.iter
    (fun i ->
      check tbool "does not fit small" false (Code.fits_small i);
      let c = Code.of_int i in
      check tbool "negative even code" true (c < 0 && c land 1 = 0);
      check tint "decodes exactly" i (Code.to_int c);
      check tbool "re-encoding is stable" true (Code.equal c (Code.of_int i)))
    [ big + 1; max_int; -(big + 2); min_int ];
  check tbool "dictionary grew" true (Code.dictionary_size () > before)

let test_symbols_are_even_ids () =
  let s = Symbol.intern "code-test-sym" in
  let c = Code.of_symbol s in
  check tbool "even non-negative" true (c >= 0 && c land 1 = 0);
  check tbool "is_symbol" true (Code.is_symbol c);
  check tbool "not is_int" false (Code.is_int c);
  check tbool "decodes" true (Value.equal (Code.to_value c) (Value.Sym s));
  check tbool "of_value agrees" true (Code.equal c (Code.of_value (Value.Sym s)))

let test_compare_values_matches_value_compare () =
  let vs =
    [ Value.sym "a"; Value.sym "zz"; Value.int (-3); Value.int 0;
      Value.int 7; Value.int max_int; Value.int min_int
    ]
  in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let expect = compare (Value.compare a b) 0 in
          let got =
            compare (Code.compare_values (Code.of_value a) (Code.of_value b)) 0
          in
          check tint
            (Format.asprintf "order of %a vs %a" Value.pp a Value.pp b)
            expect got)
        vs)
    vs

let test_eval_cmp_matches_literal_semantics () =
  let vs = [ Value.sym "s"; Value.int (-1); Value.int 5; Value.int max_int ] in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          List.iter
            (fun cmp ->
              check tbool "cmp agrees on codes"
                (Literal.eval_cmp cmp a b)
                (Code.eval_cmp cmp (Code.of_value a) (Code.of_value b)))
            [ Literal.Eq; Literal.Neq; Literal.Lt; Literal.Leq; Literal.Gt;
              Literal.Geq
            ])
        vs)
    vs

(* -------------------------------------------------------------------- *)
(* Thread-safety: the side dictionary and the symbol intern table are
   process-wide mutable state guarded by a mutex; four domains interning
   the same out-of-range ints and symbol names concurrently must agree
   on every code, decode exactly, and never create duplicate entries. *)

let test_concurrent_interning () =
  let n_domains = 4 and n_values = 200 in
  let seed = 0x5eed + Hashtbl.hash "code-stress" in
  let big k = max_int - 1 - (k * 7919) - (seed land 0xff) in
  let sym k = Printf.sprintf "stress_sym_%d_%d" (seed land 0xfff) k in
  let worker () =
    Array.init n_values (fun k ->
        let ic = Code.of_int (big k) in
        let sc = Code.of_symbol (Symbol.intern (sym k)) in
        let fc = Code.of_symbol (Symbol.fresh "stress_fresh") in
        (ic, sc, fc))
  in
  let domains = Array.init n_domains (fun _ -> Domain.spawn worker) in
  let results = Array.map Domain.join domains in
  (* every domain computed the same code for the same value *)
  Array.iter
    (fun row ->
      Array.iteri
        (fun k (ic, sc, _) ->
          let ic0, sc0, _ = results.(0).(k) in
          check tbool "int codes agree across domains" true (Code.equal ic ic0);
          check tbool "symbol codes agree across domains" true
            (Code.equal sc sc0);
          check tint "decodes exactly" (big k) (Code.to_int ic))
        row)
    results;
  (* distinct inputs got distinct codes (injectivity survived the race) *)
  let all = Hashtbl.create 256 in
  Array.iteri
    (fun k (ic, sc, _) ->
      check tbool "int/sym codes distinct" false (Code.equal ic sc);
      Hashtbl.replace all ic ("i", k);
      Hashtbl.replace all sc ("s", k))
    results.(0);
  check tint "no code collisions" (2 * n_values) (Hashtbl.length all);
  Array.iteri
    (fun k (ic, sc, _) ->
      check tbool "int slot" true (Hashtbl.find all ic = ("i", k));
      check tbool "sym slot" true (Hashtbl.find all sc = ("s", k)))
    results.(0);
  (* [fresh] never handed the same symbol to two callers *)
  let fresh_codes = Hashtbl.create 256 in
  Array.iter
    (Array.iter (fun (_, _, fc) ->
         check tbool "fresh symbol is unique" false (Hashtbl.mem fresh_codes fc);
         Hashtbl.replace fresh_codes fc ()))
    results;
  check tint "all fresh symbols distinct" (n_domains * n_values)
    (Hashtbl.length fresh_codes)

(* The one digit writer renders what [to_string] decodes: small ints at
   the digit boundaries and the ends of the arithmetic range, dictionary
   ints and symbols, one with a space. *)
let test_render_matches_to_string () =
  let rendered c =
    let buf = Buffer.create 16 in
    Code.render buf c;
    Buffer.contents buf
  in
  let big = max_int asr 1 in
  let ints =
    [ 0; 9; 10; -1; -9; -10; 99; 100; 12345; min_int asr 1; big;
      big + 1; -(big + 2); max_int; min_int ]
  in
  List.iter
    (fun c ->
      check Alcotest.string (Code.to_string c) (Code.to_string c) (rendered c))
    (List.map Code.of_int ints
    @ List.map
        (fun name -> Code.of_symbol (Symbol.intern name))
        [ "render_sym"; "Big Co"; "" ]);
  List.iter
    (fun n ->
      let buf = Buffer.create 24 in
      Code.add_digits buf n;
      check Alcotest.string "add_digits" (string_of_int n) (Buffer.contents buf))
    ints;
  (* small ints and symbols render without allocating *)
  let buf = Buffer.create 64 in
  let codes = [| Code.of_int (-4321); Code.of_symbol (Symbol.intern "Big Co") |] in
  let before = Gc.minor_words () in
  for i = 1 to 10_000 do
    Buffer.clear buf;
    Code.render buf (Sys.opaque_identity codes.(i land 1))
  done;
  check (Alcotest.float 0.) "minor words over 10k renders" 0.
    (Gc.minor_words () -. before)

(* -------------------------------------------------------------------- *)
(* Properties *)

let arb_value =
  QCheck.make
    ~print:(Format.asprintf "%a" Value.pp)
    QCheck.Gen.(
      oneof
        [ map Value.int int;  (* full-range: exercises the dictionary *)
          map Value.int (int_range (-1000) 1000);
          map (fun s -> Value.sym s) (string_size (int_bound 10))
        ])

let prop_roundtrip =
  QCheck.Test.make ~name:"Code.of_value/to_value round-trips any value"
    ~count:1000 arb_value (fun v ->
      Value.equal v (Code.to_value (Code.of_value v)))

let prop_injective =
  QCheck.Test.make ~name:"distinct values get distinct codes" ~count:500
    (QCheck.pair arb_value arb_value) (fun (a, b) ->
      Code.equal (Code.of_value a) (Code.of_value b) = Value.equal a b)

let prop_hash_consistent =
  QCheck.Test.make ~name:"equal codes hash equally" ~count:500 arb_value
    (fun v ->
      Code.hash (Code.of_value v) = Code.hash (Code.of_value v))

let prop_render =
  QCheck.Test.make ~name:"Code.render appends Code.to_string" ~count:1000
    arb_value (fun v ->
      let c = Code.of_value v in
      let buf = Buffer.create 8 in
      Buffer.add_char buf '[';
      Code.render buf c;
      Buffer.contents buf = "[" ^ Code.to_string c)

let prop_order_key =
  QCheck.Test.make ~name:"Code.order_key orders as Code.compare_values"
    ~count:1000 (QCheck.pair arb_value arb_value) (fun (a, b) ->
      let a = Code.of_value a and b = Code.of_value b in
      QCheck.assume (not (Code.is_dictionary a || Code.is_dictionary b));
      compare (Code.order_key a) (Code.order_key b)
      = compare (Code.compare_values a b) 0)

let suite =
  [ ( "code",
      [ Alcotest.test_case "small ints arithmetic" `Quick
          test_small_ints_are_arithmetic;
        Alcotest.test_case "big ints via dictionary" `Quick
          test_big_ints_go_through_dictionary;
        Alcotest.test_case "symbols" `Quick test_symbols_are_even_ids;
        Alcotest.test_case "value order" `Quick
          test_compare_values_matches_value_compare;
        Alcotest.test_case "render = to_string" `Quick
          test_render_matches_to_string;
        Alcotest.test_case "comparison literals" `Quick
          test_eval_cmp_matches_literal_semantics;
        Alcotest.test_case "concurrent interning (4 domains)" `Quick
          test_concurrent_interning
      ] );
    ( "code:properties",
      List.map QCheck_alcotest.to_alcotest
        [ prop_roundtrip; prop_injective; prop_hash_consistent; prop_render;
          prop_order_key
        ] )
  ]

(* Storage tests: tuples, relations (with index consistency), databases. *)

open Datalog_ast
open Datalog_storage

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let tup l = Array.of_list (List.map Code.of_int l)

let test_tuple_equal_hash () =
  let a = tup [ 1; 2 ] and b = tup [ 1; 2 ] and c = tup [ 2; 1 ] in
  check tbool "equal" true (Tuple.equal a b);
  check tbool "hash agrees" true (Tuple.hash a = Tuple.hash b);
  check tbool "different" false (Tuple.equal a c);
  check tbool "width matters" false (Tuple.equal a (tup [ 1; 2; 3 ]))

(* Minor words [f] allocates, less the cost of the reading itself. *)
let minor_words_of f =
  let measure f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let overhead = measure ignore in
  measure f -. overhead

let test_tuple_primitives_allocation_free () =
  let a = tup [ 7; -3; 1000 ] and b = tup [ 7; -3; 1001 ] in
  let acc = ref 0 in
  let calls name f =
    let words =
      minor_words_of (fun () ->
          for _ = 1 to 10_000 do
            acc := !acc + f (Sys.opaque_identity a) (Sys.opaque_identity b)
          done)
    in
    check (Alcotest.float 0.) (name ^ ": minor words over 10k calls") 0. words
  in
  calls "equal" (fun a b -> Bool.to_int (Tuple.equal a b));
  calls "compare" Tuple.compare;
  calls "hash" (fun a _ -> Tuple.hash a);
  ignore (Sys.opaque_identity !acc)

(* One round of a chain closure derives the pairs (i, i + d): under a
   plain [h*31 + code] combine they all share one bucket of a 64-slot
   table, and every insert walks that bucket.  On a fresh relation of a
   few hundred tuples the amortised doubling of its row array and
   membership table comes to about 5 words per insert. *)
let test_closure_round_insert_cost () =
  let d = 7 and n = 200 in
  let tuples = List.init n (fun i -> tup [ i; i + d ]) in
  let r = Relation.create 2 in
  let words =
    minor_words_of (fun () ->
        List.iter (fun t -> ignore (Relation.insert r t)) tuples)
  in
  check tint "all inserted" n (Relation.cardinal r);
  let per_insert = words /. float_of_int n in
  if per_insert >= 64. then
    Alcotest.failf "%.1f minor words per insert (limit 64)" per_insert

(* All rounds of the 400-node chain closure (79,800 facts, the closure
   benchmark's relation), so that the count is the per-insert
   bookkeeping rather than the growth of a small relation.  An index or
   projection registered before the inserts is caught up when it is next
   read, not by the inserts; that case also measures the reads.  Catching
   up costs about 5 words per fact: 2 for the projected key and 3 for the
   bucket entry of the hash index.  The projection's run is sorted in
   arrays of its own length, which at this size live outside the minor
   heap. *)
let test_closure_insert_cost () =
  let chain = 400 in
  let tuples =
    List.concat_map
      (fun d -> List.init (chain - d) (fun i -> tup [ i; i + d ]))
      (List.init (chain - 1) succ)
  in
  let n = List.length tuples in
  let per_fact name words limit =
    let per = words /. float_of_int n in
    if per > limit then
      Alcotest.failf "%s: %.1f minor words per fact (limit %g)" name per limit
  in
  let inserted name register =
    let r = Relation.create 2 in
    register r;
    let words =
      minor_words_of (fun () ->
          List.iter (fun t -> ignore (Relation.insert r t)) tuples)
    in
    check tint (name ^ ": all inserted") n (Relation.cardinal r);
    per_fact (name ^ ": inserts") words 4.;
    (r, words)
  in
  ignore (inserted "no index" ignore);
  let key = [ (0, Code.of_int 0) ] and by_dst = Relation.prepare_sorted [ 1 ] in
  let r, insert_words =
    inserted "hash index and sorted projection" (fun r ->
        ignore (Relation.select r key);
        ignore (Relation.sorted_view r by_dst))
  in
  let found = ref [] and view = ref None in
  let read_words =
    minor_words_of (fun () ->
        found := Relation.select r key;
        view := Some (Relation.sorted_view r by_dst))
  in
  per_fact "inserts and catch-up" (insert_words +. read_words) 8.;
  check tint "select after catch-up" (chain - 1) (List.length !found);
  match !view with
  | Some v -> check tint "projection after catch-up" n v.Relation.sv_len
  | None -> assert false

let test_tuple_project () =
  let t = tup [ 10; 20; 30 ] in
  check tbool "projection" true (Tuple.equal (Tuple.project [| 2; 0 |] t) (tup [ 30; 10 ]))

(* [Tuple.sort] must give [Array.stable_sort Tuple.compare]'s order, down
   to which of two equal tuples comes first.  The arrays mix symbols with
   negative ints, put ints at both ends of the arithmetic range (a key
   range wider than [max_int] once symbols join them), hold dictionary
   ints (the comparison-sort fallback) and duplicates, and straddle the
   radix cutoff at arities 0 to 3. *)
let test_tuple_sort_matches_stable_sort () =
  let rng = Random.State.make [| 22 |] in
  let pick a = a.(Random.State.int rng (Array.length a)) in
  let syms =
    Array.init 50 (fun i ->
        Code.of_symbol (Symbol.intern (Printf.sprintf "sort_sym_%d" i)))
  in
  let big = max_int asr 1 in
  let extremes = [| big; -big - 1; big - 1; -big; 0; -1; 1 |] in
  let dictionary = [| big + 1; -(big + 2); max_int; min_int |] in
  let modes =
    [| ("narrow ints", fun () -> Code.of_int (Random.State.int rng 400));
       ( "symbols and negatives",
         fun () ->
           if Random.State.bool rng then pick syms
           else Code.of_int (-Random.State.int rng 3000) );
       ( "range ends and symbols",
         fun () ->
           match Random.State.int rng 3 with
           | 0 -> pick syms
           | 1 -> Code.of_int (pick extremes)
           | _ -> Code.of_int (Random.State.bits rng - (1 lsl 29)) );
       ( "dictionary ints",
         fun () ->
           if Random.State.int rng 50 = 0 then Code.of_int (pick dictionary)
           else Code.of_int (Random.State.int rng 100 - 50) );
       ("duplicates", fun () -> Code.of_int (Random.State.int rng 3))
    |]
  in
  let sizes = [| 0; 1; 2; 17; 255; 256; 257; 600; 2000 |] in
  for round = 1 to 300 do
    let mode, code = pick modes in
    let n = pick sizes and arity = Random.State.int rng 4 in
    let mixed = round mod 25 = 0 in
    let a =
      Array.init n (fun _ ->
          let w = if mixed then Random.State.int rng 4 else arity in
          Array.init w (fun _ -> code ()))
    in
    let expect = Array.copy a in
    Array.stable_sort Tuple.compare expect;
    let got = Array.copy a in
    Tuple.sort got;
    let label =
      Printf.sprintf "%s, %d tuples of arity %d%s" mode n arity
        (if mixed then " (mixed)" else "")
    in
    check tbool label true (Array.for_all2 ( == ) expect got)
  done

(* [Relation.matching] selects what [Tuple.filter] accepts, sorted *)
let test_relation_matching () =
  let r = Relation.create 2 in
  let x = Term.var "X" and y = Term.var "Y" and k i = Term.int i in
  let pat args = Tuple.pattern (Atom.make (Pred.make "matching_p" 2) args) in
  for i = 0 to 599 do
    ignore (Relation.insert r (tup [ i mod 20; (i * 31) mod 601 ]))
  done;
  check tint "above the radix cutoff" 600 (Relation.cardinal r);
  List.iter
    (fun (name, p) ->
      let expect =
        List.sort Tuple.compare (Tuple.filter p (Relation.to_list r))
      in
      check tbool name true (Relation.matching r p = expect))
    [ ("all variables", pat [| x; y |]);
      ("constant", pat [| k 3; y |]);
      ("repeated variable", pat [| x; x |]);
      ("no match", pat [| k 99; y |])
    ]

let test_relation_insert_dedup () =
  let r = Relation.create 2 in
  check tbool "first insert new" true (Relation.insert r (tup [ 1; 2 ]));
  check tbool "duplicate rejected" false (Relation.insert r (tup [ 1; 2 ]));
  check tint "cardinal" 1 (Relation.cardinal r);
  check tbool "mem" true (Relation.mem r (tup [ 1; 2 ]))

let test_relation_arity_check () =
  let r = Relation.create ~name:"r" 2 in
  Alcotest.check_raises "arity mismatch"
    (Invalid_argument "Relation.insert(r): arity 2, tuple of width 3")
    (fun () -> ignore (Relation.insert r (tup [ 1; 2; 3 ])))

let test_relation_insertion_order () =
  let r = Relation.create 1 in
  List.iter (fun i -> ignore (Relation.insert r (tup [ i ]))) [ 3; 1; 2 ];
  check (Alcotest.list tint) "insertion order preserved" [ 3; 1; 2 ]
    (List.map (fun t -> Code.to_int t.(0))
       (Relation.to_list r))

let test_relation_select () =
  let r = Relation.create 2 in
  List.iter
    (fun (a, b) -> ignore (Relation.insert r (tup [ a; b ])))
    [ (1, 10); (1, 20); (2, 10); (3, 30) ];
  check tint "select col0=1" 2 (List.length (Relation.select r [ (0, Code.of_int 1) ]));
  check tint "select col1=10" 2 (List.length (Relation.select r [ (1, Code.of_int 10) ]));
  check tint "select both" 1
    (List.length (Relation.select r [ (0, Code.of_int 1); (1, Code.of_int 20) ]));
  check tint "select nothing bound = all" 4 (List.length (Relation.select r []));
  check tint "select miss" 0 (List.length (Relation.select r [ (0, Code.of_int 9) ]))

let test_relation_index_maintained_after_insert () =
  let r = Relation.create 2 in
  ignore (Relation.insert r (tup [ 1; 10 ]));
  (* force index creation *)
  ignore (Relation.select r [ (0, Code.of_int 1) ]);
  check tint "one index" 1 (Relation.index_count r);
  (* subsequent inserts must be visible through the existing index *)
  ignore (Relation.insert r (tup [ 1; 20 ]));
  check tint "index sees new tuple" 2
    (List.length (Relation.select r [ (0, Code.of_int 1) ]))

let test_relation_copy_independent () =
  let r = Relation.create 1 in
  ignore (Relation.insert r (tup [ 1 ]));
  let c = Relation.copy r in
  ignore (Relation.insert c (tup [ 2 ]));
  check tint "copy grew" 2 (Relation.cardinal c);
  check tint "original untouched" 1 (Relation.cardinal r)

let test_relation_union_into () =
  let a = Relation.create 1 and b = Relation.create 1 in
  ignore (Relation.insert a (tup [ 1 ]));
  ignore (Relation.insert a (tup [ 2 ]));
  ignore (Relation.insert b (tup [ 2 ]));
  check tint "one new" 1 (Relation.union_into ~src:a ~dst:b);
  check tint "dst has both" 2 (Relation.cardinal b)

let test_database_basics () =
  let db = Database.create () in
  let p = Pred.make "p" 2 in
  check tbool "add new" true (Database.add db p (tup [ 1; 2 ]));
  check tbool "add dup" false (Database.add db p (tup [ 1; 2 ]));
  check tbool "mem" true (Database.mem db p (tup [ 1; 2 ]));
  check tint "cardinal" 1 (Database.cardinal db p);
  check tint "total" 1 (Database.total_facts db);
  check tint "missing pred card" 0 (Database.cardinal db (Pred.make "q" 1))

let test_database_of_facts_atoms () =
  let atoms =
    [ Atom.app "e" [ Term.int 1; Term.int 2 ];
      Atom.app "e" [ Term.int 2; Term.int 3 ];
      Atom.app "n" [ Term.sym "x" ]
    ]
  in
  let db = Database.of_facts atoms in
  check tint "two preds" 2 (List.length (Database.preds db));
  check tbool "atom mem" true
    (Database.mem_atom db (Atom.app "e" [ Term.int 2; Term.int 3 ]));
  check tbool "atom not mem" false
    (Database.mem_atom db (Atom.app "e" [ Term.int 3; Term.int 2 ]))

(* Each relation holds its tuples in insertion order, duplicates
   dropped, and a relation sized for its facts still grows past them. *)
let test_database_of_facts_order () =
  let e a b = Atom.app "e" [ Term.int a; Term.int b ]
  and n x = Atom.app "n" [ Term.sym x ] in
  let db =
    Database.of_facts [ e 1 2; n "x"; e 2 3; e 1 2; n "y"; e 3 1; n "x" ]
  in
  let rows p = Relation.to_list (Database.rel db p) in
  let ep = Pred.make "e" 2 in
  check tbool "e rows in insertion order" true
    (List.equal Tuple.equal (rows ep)
       (List.map Tuple.of_atom [ e 1 2; e 2 3; e 3 1 ]));
  check tbool "n rows in insertion order" true
    (List.equal Tuple.equal
       (rows (Pred.make "n" 1))
       (List.map Tuple.of_atom [ n "x"; n "y" ]));
  for i = 10 to 200 do
    ignore (Database.add db ep (tup [ i; i + 1 ]))
  done;
  check tint "grows past its facts" 194 (Database.cardinal db ep);
  check tbool "finds an early row" true (Database.mem_atom db (e 2 3));
  Alcotest.check_raises "a non-ground atom has no tuple"
    (Invalid_argument "Tuple.of_atom: free variable X") (fun () ->
      ignore (Tuple.of_atom (Atom.app "e" [ Term.int 1; Term.var "X" ])))

let test_database_copy_independent () =
  let db = Database.create () in
  ignore (Database.add_atom db (Atom.app "p" [ Term.int 1 ]));
  let c = Database.copy db in
  ignore (Database.add_atom c (Atom.app "p" [ Term.int 2 ]));
  check tint "copy grew" 2 (Database.cardinal c (Pred.make "p" 1));
  check tint "original untouched" 1 (Database.cardinal db (Pred.make "p" 1))

(* Property: select over any binding pattern agrees with a linear scan. *)
let prop_select_agrees_with_scan =
  let gen =
    QCheck.Gen.(
      let* n = int_range 0 60 in
      let* tuples = list_repeat n (pair (int_bound 5) (int_bound 5)) in
      let* q = pair (int_bound 5) (int_bound 5) in
      let* mask = int_range 0 3 in
      return (tuples, q, mask))
  in
  QCheck.Test.make ~name:"Relation.select agrees with linear scan" ~count:300
    (QCheck.make gen) (fun (tuples, (qa, qb), mask) ->
      let r = Relation.create 2 in
      List.iter (fun (a, b) -> ignore (Relation.insert r (tup [ a; b ]))) tuples;
      let bindings =
        (if mask land 1 <> 0 then [ (0, Code.of_int qa) ] else [])
        @ if mask land 2 <> 0 then [ (1, Code.of_int qb) ] else []
      in
      let selected = Relation.select r bindings |> List.sort Tuple.compare in
      let scanned =
        Relation.to_list r
        |> List.filter (fun t ->
               List.for_all (fun (i, v) -> Code.equal t.(i) v) bindings)
        |> List.sort Tuple.compare
      in
      List.equal Tuple.equal selected scanned)

(* Property: insert-then-query through an index created at an arbitrary
   point in the insertion sequence stays consistent. *)
let prop_index_creation_point_irrelevant =
  let gen =
    QCheck.Gen.(
      let* before = list_size (int_bound 20) (pair (int_bound 4) (int_bound 4)) in
      let* after = list_size (int_bound 20) (pair (int_bound 4) (int_bound 4)) in
      let* key = int_bound 4 in
      return (before, after, key))
  in
  QCheck.Test.make ~name:"index creation point is irrelevant" ~count:300
    (QCheck.make gen) (fun (before, after, key) ->
      let with_early = Relation.create 2 in
      ignore (Relation.select with_early [ (0, Code.of_int key) ]);
      let with_late = Relation.create 2 in
      List.iter
        (fun (a, b) ->
          ignore (Relation.insert with_early (tup [ a; b ]));
          ignore (Relation.insert with_late (tup [ a; b ])))
        (before @ after);
      let se = Relation.select with_early [ (0, Code.of_int key) ] in
      let sl = Relation.select with_late [ (0, Code.of_int key) ] in
      List.sort Tuple.compare se = List.sort Tuple.compare sl)

(* Property: select, iteration order and cardinality survive arbitrary
   insert/remove churn — exercising tombstoning, amortised compaction
   and index-bucket removal together against a list model. *)
let prop_select_under_churn =
  let gen =
    QCheck.Gen.(
      let* ops =
        list_size (int_range 0 150) (triple bool (int_bound 4) (int_bound 4))
      in
      let* q = pair (int_bound 4) (int_bound 4) in
      let* mask = int_range 0 3 in
      return (ops, q, mask))
  in
  QCheck.Test.make ~name:"select agrees with scan under insert/remove churn"
    ~count:300 (QCheck.make gen) (fun (ops, (qa, qb), mask) ->
      let r = Relation.create 2 in
      (* warm an index so bucket maintenance runs during the churn *)
      ignore (Relation.select r [ (0, Code.of_int 0) ]);
      let consistent = ref true in
      let model =
        List.fold_left
          (fun model (ins, a, b) ->
            let t = tup [ a; b ] in
            let present = List.exists (Tuple.equal t) model in
            if ins then begin
              if Relation.insert r t = present then consistent := false;
              if present then model else model @ [ t ]
            end
            else begin
              if Relation.remove r t <> present then consistent := false;
              List.filter (fun u -> not (Tuple.equal t u)) model
            end)
          [] ops
      in
      let bindings =
        (if mask land 1 <> 0 then [ (0, Code.of_int qa) ] else [])
        @ if mask land 2 <> 0 then [ (1, Code.of_int qb) ] else []
      in
      let selected = Relation.select r bindings |> List.sort Tuple.compare in
      let expected =
        List.filter
          (fun t -> List.for_all (fun (i, v) -> Code.equal t.(i) v) bindings)
          model
        |> List.sort Tuple.compare
      in
      !consistent
      && List.equal Tuple.equal selected expected
      && List.equal Tuple.equal (Relation.to_list r) model
      && Relation.cardinal r = List.length model)

(* Regression: duplicate bindings on one column used to corrupt the index
   key (the column list is sorted, the probe key built positionally).
   Equal duplicates must be redundant; conflicting ones match nothing. *)
let test_relation_select_duplicate_bindings () =
  let r = Relation.create 2 in
  List.iter
    (fun (a, b) -> ignore (Relation.insert r (tup [ a; b ])))
    [ (1, 10); (1, 20); (2, 10) ];
  let c1 = Code.of_int 1 and c2 = Code.of_int 2 and c10 = Code.of_int 10 in
  check tint "equal duplicates are redundant" 2
    (List.length (Relation.select r [ (0, c1); (0, c1) ]));
  check tint "equal duplicates mixed with another column" 1
    (List.length (Relation.select r [ (0, c1); (1, c10); (0, c1) ]));
  check tint "conflicting duplicates match nothing" 0
    (List.length (Relation.select r [ (0, c1); (0, c2) ]));
  let ts, n = Relation.select_count r [ (1, c10); (1, Code.of_int 20) ] in
  check tint "select_count conflict: empty" 0 (List.length ts);
  check tint "select_count conflict: zero count" 0 n;
  (* the dup query must not have polluted the index for the clean one *)
  check tint "index still consistent after dup queries" 2
    (List.length (Relation.select r [ (0, c1) ]))

let test_relation_sorted_view_order () =
  let r = Relation.create 2 in
  let a = Relation.prepare_sorted [ 0 ] in
  List.iter
    (fun (x, y) -> ignore (Relation.insert r (tup [ x; y ])))
    [ (1, 100); (2, 200); (1, 300) ];
  let rows v =
    let w = Relation.sorted_view r v in
    List.init w.Relation.sv_len (fun i ->
        let t = w.Relation.sv_rows.(i) in
        (Code.to_int t.(0), Code.to_int t.(1)))
  in
  check
    (Alcotest.list (Alcotest.pair tint tint))
    "sorted by key, newest first within a key"
    [ (1, 300); (1, 100); (2, 200) ]
    (rows a);
  (* inserts since the last view take the incremental sorted-run path *)
  List.iter
    (fun (x, y) -> ignore (Relation.insert r (tup [ x; y ])))
    [ (1, 400); (0, 500) ];
  check
    (Alcotest.list (Alcotest.pair tint tint))
    "merged run: still sorted, run rows win ties"
    [ (0, 500); (1, 400); (1, 300); (1, 100); (2, 200) ]
    (rows a);
  (* a removal marks the projection stale and forces a rebuild *)
  ignore (Relation.remove r (tup [ 1; 100 ]));
  check
    (Alcotest.list (Alcotest.pair tint tint))
    "rebuild after removal"
    [ (0, 500); (1, 400); (1, 300); (2, 200) ]
    (rows a);
  check tint "one sorted projection" 1 (Relation.sorted_index_count r);
  let v = Relation.sorted_view r a in
  check tbool "column-major keys mirror the rows" true
    (Array.length v.sv_keys = 1
    && List.for_all
         (fun i -> Code.equal v.sv_keys.(0).(i) v.sv_rows.(i).(0))
         (List.init v.sv_len Fun.id))

(* The snapshot contract of [Relation.iter]: the function may insert into
   the relation it iterates, growing the row array and the membership
   table several times over, and the tuples it inserts are not visited.
   A slice iterates its own positions while its parent grows. *)
let test_iter_snapshot () =
  let pairs = Alcotest.(list (pair int int)) in
  let decode t = (Code.to_int t.(0), Code.to_int t.(1)) in
  let r = Relation.create 2 in
  for i = 0 to 9 do
    ignore (Relation.insert r (tup [ i; 0 ]))
  done;
  let seen = ref [] in
  Relation.iter
    (fun t ->
      seen := decode t :: !seen;
      for k = 1 to 40 do
        ignore (Relation.insert r (tup [ Code.to_int t.(0); k ]))
      done)
    r;
  check pairs "visits the tuples present at the start"
    (List.init 10 (fun i -> (i, 0)))
    (List.rev !seen);
  check tint "the store grew by every insert" 410 (Relation.cardinal r);
  check tbool "the inserted tuples are members" true
    (List.for_all
       (fun (i, k) -> Relation.mem r (tup [ i; k ]))
       (List.init 400 (fun n -> (n / 40, 1 + (n mod 40)))));
  let listed = ref 0 in
  Relation.iter (fun _ -> incr listed) r;
  check tint "a later iteration lists them all" 410 !listed;
  let mark = Relation.mark r in
  for i = 0 to 4 do
    ignore (Relation.insert r (tup [ 100 + i; 0 ]))
  done;
  let slice = Relation.since r mark in
  let seen = ref [] in
  Relation.iter
    (fun t ->
      seen := decode t :: !seen;
      ignore (Relation.insert r (tup [ 200 + Code.to_int t.(0); 0 ])))
    slice;
  check pairs "a slice visits its own positions"
    (List.init 5 (fun i -> (100 + i, 0)))
    (List.rev !seen)

(* Property: a sorted projection lists its rows in exactly the order
   [Array.stable_sort] by the raw codes of its columns gives the live
   rows listed newest first, down to which of two equal-keyed rows comes
   first — on the first build, on a run merged in since the last read,
   on the rebuild after a removal, and on a run merged into that.  The
   keys cover one to three of a relation's columns (the last column
   keeps the tuples distinct) and come from symbols, negative ints,
   dictionary ints (a key range wider than [max_int]) and a three-value
   range (heavy duplicates); the batches straddle the sizes where the
   sort changes method. *)
let prop_projection_sort =
  let syms =
    lazy
      (Array.init 40 (fun i ->
           Code.of_symbol (Symbol.intern (Printf.sprintf "proj_sym_%d" i))))
  in
  let big = max_int asr 1 in
  let modes =
    [| (fun rng -> Code.of_int (Random.State.int rng 400));
       (fun rng ->
         if Random.State.bool rng then
           (Lazy.force syms).(Random.State.int rng 40)
         else Code.of_int (-Random.State.int rng 3000));
       (fun rng ->
         match Random.State.int rng 4 with
         | 0 -> Code.of_int (big + 1 + Random.State.int rng 5)
         | 1 -> Code.of_int (-big - 2 - Random.State.int rng 5)
         | 2 -> Code.of_int big
         | _ -> Code.of_int (Random.State.int rng 100 - 50));
       (fun rng -> Code.of_int (Random.State.int rng 3))
    |]
  in
  let sizes = [| 0; 1; 2; 15; 16; 17; 40; 255; 256; 600 |] in
  let key_compare cols (a : Tuple.t) (b : Tuple.t) =
    let rec go j =
      if j >= Array.length cols then 0
      else
        let c = Int.compare a.(cols.(j)) b.(cols.(j)) in
        if c <> 0 then c else go (j + 1)
    in
    go 0
  in
  QCheck.Test.make ~name:"projection sort = stable sort" ~count:150
    QCheck.(make ~print:string_of_int Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let pick a = a.(Random.State.int rng (Array.length a)) in
      let code = pick modes in
      let cols =
        match Random.State.int rng 7 with
        | 0 -> [| 0 |] | 1 -> [| 1 |] | 2 -> [| 2 |] | 3 -> [| 0; 1 |]
        | 4 -> [| 0; 2 |] | 5 -> [| 1; 2 |] | _ -> [| 0; 1; 2 |]
      in
      let r = Relation.create 4 in
      let serial = ref 0 in
      let insert_batch () =
        for _ = 1 to pick sizes do
          incr serial;
          let t =
            Array.init 4 (fun j ->
                if j = 3 then Code.of_int !serial else code rng)
          in
          ignore (Relation.insert r t)
        done
      in
      let access = Relation.prepare_sorted (Array.to_list cols) in
      let agrees () =
        let expect =
          Array.of_list (Relation.fold (fun t acc -> t :: acc) r [])
        in
        Array.stable_sort (key_compare cols) expect;
        let v = Relation.sorted_view r access in
        v.Relation.sv_len = Array.length expect
        && Array.for_all Fun.id
             (Array.mapi
                (fun i t ->
                  v.Relation.sv_rows.(i) == t
                  && Array.for_all Fun.id
                       (Array.mapi
                          (fun j c -> v.Relation.sv_keys.(j).(i) = t.(c))
                          cols))
                expect)
      in
      insert_batch ();
      let built = agrees () in
      insert_batch ();
      let merged = agrees () in
      let to_remove = ref [] in
      Relation.iter
        (fun t -> if Random.State.int rng 3 = 0 then to_remove := t :: !to_remove)
        r;
      List.iter (fun t -> ignore (Relation.remove r t)) !to_remove;
      let rebuilt = agrees () in
      insert_batch ();
      built && merged && rebuilt && agrees ())

(* Property: hash probes and sorted views stay consistent with a list
   model under interleaved insert/remove churn, with both index kinds
   created mid-stream and a deterministic tail that is guaranteed to
   cross the amortised-compaction threshold. *)
let prop_sorted_and_probe_under_churn =
  let gen =
    QCheck.Gen.(
      let* ops =
        list_size (int_range 0 200) (triple (int_bound 3) (int_bound 9) (int_bound 9))
      in
      let* q = int_bound 9 in
      return (ops, q))
  in
  QCheck.Test.make ~name:"probe and sorted_view agree with model under churn"
    ~count:100 (QCheck.make gen) (fun (ops, q) ->
      let r = Relation.create 2 in
      let acc = Relation.prepare [ 0 ] in
      let sacc = Relation.prepare_sorted [ 0 ] in
      (* model holds the live tuples in insertion order *)
      let model = ref [] in
      let ok = ref true in
      let check_now key =
        let c = Code.of_int key in
        let bucket, n = Relation.probe r acc [| c |] in
        let expect = List.filter (fun t -> Code.equal t.(0) c) !model in
        (* hash buckets list matches newest first *)
        if n <> List.length expect
           || not (List.equal Tuple.equal bucket (List.rev expect))
        then ok := false;
        let v = Relation.sorted_view r sacc in
        let rows =
          List.init v.Relation.sv_len (fun i -> v.Relation.sv_rows.(i))
        in
        let expect_sorted =
          (* stable sort of the newest-first model = sorted with
             newest-first ties, exactly the view's contract *)
          List.stable_sort
            (fun a b -> Code.compare a.(0) b.(0))
            (List.rev !model)
        in
        if not (List.equal Tuple.equal rows expect_sorted) then ok := false;
        List.iteri
          (fun i t ->
            if not (Code.equal v.sv_keys.(0).(i) t.(0)) then ok := false)
          rows
      in
      let apply (k, a, b) =
        let t = tup [ a; b ] in
        let present = List.exists (Tuple.equal t) !model in
        match k with
        | 0 | 1 ->
          if Relation.insert r t = present then ok := false;
          if not present then model := !model @ [ t ]
        | 2 ->
          if Relation.remove r t <> present then ok := false;
          model := List.filter (fun u -> not (Tuple.equal t u)) !model
        | _ -> check_now a
      in
      List.iter apply ops;
      check_now q;
      (* deterministic tail: 120 fresh tuples in, then all out again,
         which forces filled > 64 and filled > 2 * size (the model never
         exceeds 100 live tuples), i.e. the compaction threshold *)
      let extra = List.init 120 (fun i -> tup [ 100 + i; i ]) in
      List.iter (fun t -> ignore (Relation.insert r t)) extra;
      model := !model @ extra;
      check_now 105;
      List.iter (fun t -> ignore (Relation.remove r t)) extra;
      model :=
        List.filter (fun u -> Code.to_int u.(0) < 100) !model;
      check_now q;
      (* a projection created after all that churn must agree too *)
      let late = Relation.prepare_sorted [ 0; 1 ] in
      let v = Relation.sorted_view r late in
      let rows =
        List.init v.Relation.sv_len (fun i -> v.Relation.sv_rows.(i))
      in
      let expect =
        List.stable_sort
          (fun a b ->
            let c = Code.compare a.(0) b.(0) in
            if c <> 0 then c else Code.compare a.(1) b.(1))
          (List.rev !model)
      in
      !ok && List.equal Tuple.equal rows expect)

let test_relation_dead_buckets_removed () =
  let r = Relation.create 2 in
  List.iter
    (fun i -> ignore (Relation.insert r (tup [ i; i * 2 ])))
    (List.init 50 Fun.id);
  ignore (Relation.select r [ (0, Code.of_int 7) ]);
  check tbool "buckets live while tuples live" true
    (Relation.bucket_count r > 0);
  List.iter
    (fun i -> ignore (Relation.remove r (tup [ i; i * 2 ])))
    (List.init 50 Fun.id);
  check tint "emptied buckets are removed, not left dead" 0
    (Relation.bucket_count r);
  check tint "relation empty" 0 (Relation.cardinal r);
  check tbool "reusable after the churn" true
    (Relation.insert r (tup [ 1; 2 ]));
  check tint "select still consistent" 1
    (List.length (Relation.select r [ (0, Code.of_int 1) ]))

let test_relation_compaction_preserves_order () =
  let r = Relation.create 1 in
  List.iter (fun i -> ignore (Relation.insert r (tup [ i ]))) (List.init 300 Fun.id);
  (* removing half of 300 crosses the filled > 2 * size threshold *)
  List.iter
    (fun i -> if i mod 2 = 0 then ignore (Relation.remove r (tup [ i ])))
    (List.init 300 Fun.id);
  check tint "cardinal after compaction" 150 (Relation.cardinal r);
  check (Alcotest.list tint) "odd survivors in insertion order"
    (List.init 150 (fun i -> (2 * i) + 1))
    (List.map
       (fun t -> Code.to_int t.(0))
       (Relation.to_list r));
  check tbool "insert after compaction" true (Relation.insert r (tup [ 1000 ]));
  check tbool "mem after compaction" true (Relation.mem r (tup [ 1000 ]));
  check tbool "removed stay removed" false (Relation.mem r (tup [ 0 ]))

(* Model-based check of a relation's read paths under insert/remove
   churn, against a list of the live tuples in insertion order (which
   fixes the newest-first bucket order and the sorted views' tie order).
   Every operation builds a fresh tuple array, so a reinsert is an equal
   but physically distinct tuple; indexes and projections come into
   being at whichever read first uses their column set. *)
type rel_op =
  | Ins of int * int
  | Del of int * int
  | Mem of int * int
  | Sel of int * int * int  (* column mask, a, b *)
  | Probe of int * int * int  (* column set, a, b *)
  | Sorted of int

let col_sets = [| [ 0 ]; [ 1 ]; [ 0; 1 ] |]

let prop_relation_model =
  let open QCheck.Gen in
  let v = int_bound 4 and c = int_bound 2 in
  let op =
    frequency
      [ (5, map2 (fun a b -> Ins (a, b)) v v);
        (3, map2 (fun a b -> Del (a, b)) v v);
        (1, map2 (fun a b -> Mem (a, b)) v v);
        (1, map3 (fun m a b -> Sel (m, a, b)) (int_bound 3) v v);
        (1, map3 (fun k a b -> Probe (k, a, b)) c v v);
        (1, map (fun k -> Sorted k) c)
      ]
  in
  QCheck.Test.make ~name:"relation agrees with a list model" ~count:300
    (QCheck.make (list_size (int_range 0 300) op))
    (fun ops ->
      let r = Relation.create 2 in
      let accs = Array.map Relation.prepare col_sets in
      let saccs = Array.map Relation.prepare_sorted col_sets in
      let live = ref [] in
      let ok = ref true in
      let expect b = if not b then ok := false in
      let present t = List.exists (Tuple.equal t) !live in
      let key k t = Array.of_list (List.map (fun i -> t.(i)) col_sets.(k)) in
      let bucket k kv =
        List.rev (List.filter (fun t -> Tuple.equal (key k t) kv) !live)
      in
      let check_probe k (a, b) =
        let kv = key k (tup [ a; b ]) in
        let ts, n = Relation.probe r accs.(k) kv in
        expect (List.equal Tuple.equal ts (bucket k kv) && n = List.length ts)
      in
      let check_sorted k =
        let w = Relation.sorted_view r saccs.(k) in
        let rows =
          List.init w.Relation.sv_len (fun i -> w.Relation.sv_rows.(i))
        in
        let by_key x y = compare (key k x) (key k y) in
        let expected = List.stable_sort by_key (List.rev !live) in
        expect (List.equal Tuple.equal rows expected);
        List.iteri
          (fun j col ->
            List.iteri
              (fun i t ->
                expect (Code.equal w.Relation.sv_keys.(j).(i) t.(col)))
              rows)
          col_sets.(k)
      in
      let apply = function
        | Ins (a, b) ->
          let t = tup [ a; b ] in
          let fresh = not (present t) in
          expect (Relation.insert r t = fresh);
          if fresh then live := !live @ [ t ]
        | Del (a, b) ->
          let t = tup [ a; b ] in
          expect (Relation.remove r t = present t);
          live := List.filter (fun u -> not (Tuple.equal t u)) !live
        | Mem (a, b) ->
          let t = tup [ a; b ] in
          expect (Relation.mem r t = present t)
        | Sel (mask, a, b) ->
          let bindings =
            (if mask land 1 <> 0 then [ (0, Code.of_int a) ] else [])
            @ if mask land 2 <> 0 then [ (1, Code.of_int b) ] else []
          in
          let matching =
            List.filter
              (fun t ->
                List.for_all (fun (i, c) -> Code.equal t.(i) c) bindings)
              !live
          in
          (* a bound select reads a bucket (newest first), [] the order *)
          let expected =
            if bindings = [] then matching else List.rev matching
          in
          let ts, n = Relation.select_count r bindings in
          expect (List.equal Tuple.equal ts expected && n = List.length ts)
        | Probe (k, a, b) -> check_probe k (a, b)
        | Sorted k -> check_sorted k
      in
      let check_all () =
        expect (List.equal Tuple.equal (Relation.to_list r) !live);
        expect (Relation.cardinal r = List.length !live);
        let values = List.init 5 Fun.id in
        Array.iteri
          (fun k _ ->
            check_sorted k;
            List.iter
              (fun a -> List.iter (fun b -> check_probe k (a, b)) values)
              values)
          col_sets
      in
      List.iter apply ops;
      check_all ();
      (* compaction while indexes lag: bring only the first index and
         projection up to date, then remove enough to cross the
         compaction threshold (more than 64 slots, under half live) *)
      let extra = List.init 80 (fun i -> (10 + i, i mod 5)) in
      List.iter (fun (a, b) -> apply (Ins (a, b))) extra;
      check_probe 0 (12, 0);
      check_sorted 0;
      List.iter (fun (a, b) -> apply (Del (a, b))) extra;
      (* removed, then inserted again as a distinct array *)
      List.iter apply [ Ins (10, 0); Ins (11, 1); Ins (0, 0) ];
      List.iter apply [ Del (10, 0); Del (0, 0); Ins (0, 0) ];
      check_all ();
      List.iter
        (fun ab ->
          check_probe 0 ab;
          check_probe 2 ab)
        [ (10, 0); (11, 1) ];
      !ok)

(* Property: a slice since a mark is exactly the tuples inserted after
   it, reads like a fresh relation holding them, and is unmoved by the
   parent's later growth (row array and membership table rehashed). *)
let prop_slice_since_mark =
  let gen =
    QCheck.Gen.(
      let pairs = list_size (int_bound 40) (pair (int_bound 5) (int_bound 5)) in
      triple pairs pairs bool)
  in
  QCheck.Test.make ~name:"Relation.since is the tuples after the mark"
    ~count:300 (QCheck.make gen) (fun (before, after, early) ->
      let r = Relation.create 2 in
      let insert_all =
        List.iter (fun (a, b) -> ignore (Relation.insert r (tup [ a; b ])))
      in
      insert_all before;
      (* an index on the parent, built before the mark or not at all *)
      if early then ignore (Relation.select r [ (0, Code.of_int 0) ]);
      let m = Relation.mark r in
      insert_all after;
      let s = Relation.since r m in
      let added = fst (Relation.added_since r m) in
      let model = Relation.create 2 in
      List.iter (fun t -> ignore (Relation.insert model t)) added;
      let codes = List.init 6 Code.of_int in
      let keys k =
        List.concat_map
          (fun a ->
            List.map
              (fun b ->
                Array.of_list (List.map (Array.get [| a; b |]) col_sets.(k)))
              codes)
          codes
      in
      let probes_agree k =
        let sa = Relation.prepare col_sets.(k) in
        let ma = Relation.prepare col_sets.(k) in
        List.for_all
          (fun kv ->
            let ts, n = Relation.probe s sa kv in
            let us, m = Relation.probe model ma kv in
            n = m && List.equal ( == ) ts us)
          (keys k)
      in
      let sorted_agree k =
        let view rel =
          Relation.sorted_view rel (Relation.prepare_sorted col_sets.(k))
        in
        let v = view s and w = view model in
        v.Relation.sv_len = w.Relation.sv_len
        && List.for_all
             (fun i -> v.Relation.sv_rows.(i) == w.Relation.sv_rows.(i))
             (List.init v.Relation.sv_len Fun.id)
      in
      let agrees () =
        List.equal ( == ) (Relation.to_list s) added
        && Relation.cardinal s = List.length added
        && List.for_all (Relation.mem s) added
        && List.for_all
             (fun (a, b) ->
               let t = tup [ a; b ] in
               Relation.mem s t = List.exists (Tuple.equal t) added)
             before
        && List.for_all (fun k -> probes_agree k && sorted_agree k) [ 0; 1; 2 ]
      in
      let before_growth = agrees () in
      insert_all (List.init 300 (fun i -> (100 + i, i)));
      before_growth && agrees () && not (Relation.mem s (tup [ 100; 0 ])))

let test_slice_read_only () =
  let r = Relation.create ~name:"r" 1 in
  ignore (Relation.insert r (tup [ 1 ]));
  let s = Relation.since r 0 in
  let raises name f =
    match f () with
    | _ -> Alcotest.failf "%s on a slice did not raise" name
    | exception Invalid_argument _ -> ()
  in
  raises "insert" (fun () -> ignore (Relation.insert s (tup [ 2 ])));
  raises "remove" (fun () -> ignore (Relation.remove s (tup [ 1 ])));
  raises "clear" (fun () -> Relation.clear s);
  check tint "parent untouched" 1 (Relation.cardinal r);
  let c = Relation.copy s in
  check tbool "a copy of a slice is writable" true (Relation.insert c (tup [ 2 ]))

let test_database_since () =
  let db = Database.create () in
  let p = Pred.make "since_p" 1 and q = Pred.make "since_q" 1 in
  ignore (Database.add db p (tup [ 1 ]));
  let m = Database.marks db in
  check tint "nothing new yet" 0 (Database.total_facts (Database.since db m));
  ignore (Database.add db p (tup [ 2 ]));
  ignore (Database.add db q (tup [ 3 ]));
  let d = Database.since db m in
  check tint "both new facts" 2 (Database.total_facts d);
  check tbool "old fact excluded" false (Database.mem d p (tup [ 1 ]));
  check tbool "a predicate created after the marks counts from 0" true
    (Database.mem d q (tup [ 3 ]));
  ignore (Database.add db (Pred.make "since_r" 1) (tup [ 4 ]));
  check tbool "unchanged predicates are absent" true
    (Database.find (Database.since db (Database.marks db)) p = None);
  check tbool "the slice is not widened by later inserts" false
    (Database.mem d (Pred.make "since_r" 1) (tup [ 4 ]))

(* Property: the coded renderer writes exactly what [Atom.pp] prints for
   the decoded atom, over symbols, negative ints, ints outside the
   arithmetic code range (dictionary codes) and arity 0. *)
let prop_add_atom_matches_atom_pp =
  let value =
    QCheck.Gen.(
      oneof
        [ map Value.int small_signed_int;
          map Value.int int;
          map Value.int
            (oneofl
               [ max_int; min_int; (max_int asr 1) + 1; (min_int asr 1) - 1 ]);
          map Value.sym
            (oneofl [ "render_a"; "render_b"; "Render_c"; "render d" ])
        ])
  in
  let gen = QCheck.Gen.(int_range 0 4 >>= fun n -> array_repeat n value) in
  let print vs =
    String.concat ", " (Array.to_list (Array.map Value.to_string vs))
  in
  QCheck.Test.make ~name:"Tuple.add_atom agrees with Atom.pp" ~count:500
    (QCheck.make ~print gen) (fun values ->
      let pred = Pred.make "render_p" (Array.length values) in
      let t = Tuple.encode values in
      let buf = Buffer.create 16 in
      Tuple.add_atom buf pred t;
      Buffer.contents buf = Format.asprintf "%a" Atom.pp (Tuple.to_atom pred t))

let suite =
  [ ( "storage",
      [ Alcotest.test_case "tuple equal/hash" `Quick test_tuple_equal_hash;
        Alcotest.test_case "tuple primitives allocation-free" `Quick
          test_tuple_primitives_allocation_free;
        Alcotest.test_case "closure round insert cost" `Quick
          test_closure_round_insert_cost;
        Alcotest.test_case "closure insert cost" `Quick
          test_closure_insert_cost;
        Alcotest.test_case "tuple project" `Quick test_tuple_project;
        Alcotest.test_case "tuple sort = stable sort" `Quick
          test_tuple_sort_matches_stable_sort;
        Alcotest.test_case "relation matching" `Quick test_relation_matching;
        Alcotest.test_case "relation dedup" `Quick test_relation_insert_dedup;
        Alcotest.test_case "relation arity" `Quick test_relation_arity_check;
        Alcotest.test_case "insertion order" `Quick test_relation_insertion_order;
        Alcotest.test_case "select" `Quick test_relation_select;
        Alcotest.test_case "select duplicate bindings" `Quick
          test_relation_select_duplicate_bindings;
        Alcotest.test_case "sorted view order" `Quick
          test_relation_sorted_view_order;
        Alcotest.test_case "iter snapshot" `Quick test_iter_snapshot;
        Alcotest.test_case "index maintenance" `Quick
          test_relation_index_maintained_after_insert;
        Alcotest.test_case "relation copy" `Quick test_relation_copy_independent;
        Alcotest.test_case "union_into" `Quick test_relation_union_into;
        Alcotest.test_case "dead buckets removed" `Quick
          test_relation_dead_buckets_removed;
        Alcotest.test_case "compaction preserves order" `Quick
          test_relation_compaction_preserves_order;
        Alcotest.test_case "slice is read-only" `Quick test_slice_read_only;
        Alcotest.test_case "database since" `Quick test_database_since;
        Alcotest.test_case "database basics" `Quick test_database_basics;
        Alcotest.test_case "database of_facts" `Quick test_database_of_facts_atoms;
        Alcotest.test_case "database of_facts order" `Quick
          test_database_of_facts_order;
        Alcotest.test_case "database copy" `Quick test_database_copy_independent
      ] );
    ( "storage:properties",
      List.map QCheck_alcotest.to_alcotest
        [ prop_select_agrees_with_scan;
          prop_index_creation_point_irrelevant;
          prop_select_under_churn;
          prop_sorted_and_probe_under_churn;
          prop_projection_sort;
          prop_relation_model;
          prop_slice_since_mark;
          prop_add_atom_matches_atom_pp
        ] )
  ]

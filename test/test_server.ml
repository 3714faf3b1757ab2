(* The serve loop's guarantees, exercised without sockets where the
   behaviour lives in the supervisor — protocol framing, the adorned
   answer cache, admission control, transactional mutations with durable
   acks, warm recovery — plus an end-to-end scripted session against the
   real binary over a Unix socket, including a restart. *)

open Datalog_ast
open Datalog_storage
module P = Datalog_server.Protocol
module Cache = Datalog_server.Cache
module Sup = Datalog_server.Supervisor
module Json = Datalog_engine.Json

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let tstr = Alcotest.string

let atom = Datalog_parser.Parser.atom_of_string
let rule = Datalog_parser.Parser.rule_of_string

let tmpfile () = Filename.temp_file "alexserve" ".snap"
let rm path = try Sys.remove path with Sys_error _ -> ()

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let ancestor_program () =
  Program.make
    ~facts:
      [ atom "parent(ann, bob)";
        atom "parent(bob, cal)";
        atom "parent(bob, dan)";
        atom "parent(cal, eve)"
      ]
    [ rule "anc(X, Y) :- parent(X, Y).";
      rule "anc(X, Y) :- parent(X, Z), anc(Z, Y)."
    ]

let negation_program () =
  Program.make
    ~facts:[ atom "node(1)"; atom "node(2)"; atom "node(3)"; atom "bad(2)" ]
    [ rule "safe(X) :- node(X), not bad(X)." ]

let sup_exn ?(config = Sup.default_config) program =
  match Sup.create config program with
  | Ok t -> t
  | Error msg -> Alcotest.fail ("supervisor refused to start: " ^ msg)

let env ?(id = Json.Int 1) ?(budgets = P.no_budgets) ?key request =
  { P.req_id = id; budgets; idem_key = key; request }

let handle t e = fst (Sup.handle t ~now:(Unix.gettimeofday ()) e)

let member name reply =
  match Json.member name reply with
  | Some v -> v
  | None -> Alcotest.fail ("reply lacks field " ^ name ^ ": " ^ Json.to_line reply)

let status reply =
  match member "status" reply with
  | Json.String s -> s
  | _ -> Alcotest.fail "status is not a string"

let answer_count reply =
  match member "count" reply with
  | Json.Int n -> n
  | _ -> Alcotest.fail "count is not an int"

let int_field name reply =
  match member name reply with
  | Json.Int n -> n
  | _ -> Alcotest.fail (name ^ " is not an int")

let cached reply =
  match member "cached" reply with
  | Json.Bool b -> b
  | _ -> Alcotest.fail "cached is not a bool"

let answers reply =
  match member "answers" reply with
  | Json.List items ->
    List.map (function Json.String s -> s | _ -> Alcotest.fail "bad answer")
      items
  | _ -> Alcotest.fail "answers is not a list"

(* ------------------------------------------------------------------ *)
(* Protocol *)

let test_parse_roundtrip () =
  (match P.parse {|{"op":"query","id":7,"goal":"anc(ann, X)","timeout_s":2}|} with
  | Ok { P.req_id = Json.Int 7; budgets; request = P.Query { goal; engine } } ->
    check tbool "goal parsed" true (Atom.equal goal (atom "anc(ann, X)"));
    check tbool "engine defaults off" false engine;
    check (Alcotest.option (Alcotest.float 0.0)) "timeout" (Some 2.0)
      budgets.P.timeout_s
  | Ok _ -> Alcotest.fail "wrong parse"
  | Error e -> Alcotest.fail e.P.err_message);
  (match P.parse {|{"op":"add","facts":["parent(x, y)","parent(y, z)"]}|} with
  | Ok { P.request = P.Add [ a; b ]; _ } ->
    check tbool "first fact" true (Atom.equal a (atom "parent(x, y)"));
    check tbool "second fact" true (Atom.equal b (atom "parent(y, z)"))
  | _ -> Alcotest.fail "add did not parse");
  List.iter
    (fun (line, expect) ->
      match P.parse line with
      | Ok _ -> Alcotest.fail ("accepted: " ^ line)
      | Error e ->
        check tbool
          (Printf.sprintf "%s mentions %s (got %s)" line expect e.P.err_message)
          true
          (contains ~sub:expect e.P.err_message))
    [ ("{not json", "bad JSON");
      ({|{"op":"frobnicate"}|}, "unknown op");
      ({|{"goal":"p(X)"}|}, "missing \"op\"");
      ({|{"op":"query"}|}, "goal");
      ({|{"op":"add","facts":"p(a)"}|}, "array");
      ({|{"op":"add","facts":["p(X,"]}|}, "cannot parse");
      ({|{"op":"query","goal":"anc(ann, X). garbage (("}|}, "cannot parse");
      ({|{"op":"query","goal":"anc(ann, X) q"}|}, "cannot parse");
      ({|{"op":"add","facts":["p(a). p(b)."]}|}, "cannot parse");
      ({|{"op":"query","goal":"#"}|}, "cannot parse");
      ({|[1,2]|}, "object")
    ];
  (* the id is recovered even when the request is malformed *)
  match P.parse {|{"op":"nope","id":42}|} with
  | Error { P.err_id = Json.Int 42; _ } -> ()
  | _ -> Alcotest.fail "error did not recover the request id"

let test_reply_shapes () =
  let reply =
    P.answers_reply ~id:(Json.Int 3) ~goal:(atom "anc(ann, X)")
      ~answers:[ Tuple.of_atom (atom "anc(ann, bob)") ]
      ~cached:false ~complete:false ~reason:(Some "timeout") ~txn:0
      ~wall_s:0.01
  in
  check tstr "partial status" "partial" (status reply);
  (match member "reason" reply with
  | Json.String "timeout" -> ()
  | _ -> Alcotest.fail "reason missing");
  check (Alcotest.list tstr) "answers render as facts" [ "anc(ann, bob)" ]
    (answers reply);
  (* a rendered reply is one line and parses back *)
  let line = P.render reply in
  check tbool "single line" true
    (String.index_opt (String.sub line 0 (String.length line - 1)) '\n' = None);
  (match Json.of_string (String.trim line) with
  | Json.Obj _ -> ()
  | _ -> Alcotest.fail "render does not parse back");
  check tstr "overloaded status" "overloaded"
    (status (P.overloaded ~id:Json.Null ~scope:"server" ~retry_after_s:0.1))

(* ------------------------------------------------------------------ *)
(* Cache *)

let tuples_of strs = List.map (fun s -> Tuple.of_atom (atom s)) strs

let test_cache_exact_and_alpha () =
  let c = Cache.create ~capacity:8 in
  let deps = Pred.Set.singleton (Atom.pred (atom "p(a, b)")) in
  Cache.insert c (atom "p(a, X)") ~deps (tuples_of [ "p(a, b)"; "p(a, c)" ]);
  (match Cache.find c (atom "p(a, X)") with
  | Some (answers, `Exact) -> check tint "exact" 2 (List.length answers)
  | _ -> Alcotest.fail "no exact hit");
  (* variable names do not matter: p(a, Y) is the same call pattern *)
  (match Cache.find c (atom "p(a, Y)") with
  | Some (_, `Exact) -> ()
  | _ -> Alcotest.fail "alpha-equivalent goal missed");
  match Cache.find c (atom "p(b, X)") with
  | None -> ()
  | Some _ -> Alcotest.fail "different constant must miss"

let test_cache_subsumption () =
  let c = Cache.create ~capacity:8 in
  let deps = Pred.Set.singleton (Atom.pred (atom "p(a, b)")) in
  Cache.insert c (atom "p(X, Y)") ~deps
    (tuples_of [ "p(a, b)"; "p(a, a)"; "p(b, b)" ]);
  (* the all-free entry answers any pattern by filtering *)
  (match Cache.find c (atom "p(a, X)") with
  | Some (answers, `Subsumed) ->
    check tint "filtered to the bound constant" 2 (List.length answers)
  | _ -> Alcotest.fail "general entry did not subsume");
  (match Cache.find c (atom "p(X, X)") with
  | Some (answers, `Subsumed) ->
    check tint "filtered to the diagonal" 2 (List.length answers)
  | _ -> Alcotest.fail "repeated-variable goal not subsumed");
  (* the converse must NOT hold: p(X, X) does not subsume p(X, Y) *)
  let c2 = Cache.create ~capacity:8 in
  Cache.insert c2 (atom "p(X, X)") ~deps (tuples_of [ "p(a, a)" ]);
  match Cache.find c2 (atom "p(X, Y)") with
  | None -> ()
  | Some _ -> Alcotest.fail "diagonal entry wrongly subsumed the full pattern"

let test_cache_lru_and_invalidation () =
  let c = Cache.create ~capacity:2 in
  let dep name = Pred.Set.singleton (Atom.pred (atom (name ^ "(a)"))) in
  Cache.insert c (atom "p(X)") ~deps:(dep "p") (tuples_of [ "p(a)" ]);
  Cache.insert c (atom "q(X)") ~deps:(dep "q") (tuples_of [ "q(a)" ]);
  ignore (Cache.find c (atom "p(X)"));
  (* p is now more recent than q; inserting r must evict q *)
  Cache.insert c (atom "r(X)") ~deps:(dep "r") (tuples_of [ "r(a)" ]);
  check tint "capacity held" 2 (Cache.length c);
  check tbool "recently used survived" true (Cache.find c (atom "p(X)") <> None);
  check tbool "lru evicted" true (Cache.find c (atom "q(X)") = None);
  (* invalidation: only entries depending on the changed predicate go *)
  let n = Cache.invalidate c (Pred.Set.singleton (Atom.pred (atom "p(a)"))) in
  check tint "one entry invalidated" 1 n;
  check tbool "p gone" true (Cache.find c (atom "p(X)") = None);
  check tbool "r kept" true (Cache.find c (atom "r(X)") <> None);
  let s = Cache.stats c in
  check tint "eviction counted" 1 s.Cache.evictions;
  check tint "invalidation counted" 1 s.Cache.invalidations

(* ------------------------------------------------------------------ *)
(* Supervisor: queries, cache wiring, transactions *)

let test_query_cache_and_invalidation () =
  let t = sup_exn (ancestor_program ()) in
  let q = env (P.Query { goal = atom "anc(ann, X)"; engine = false }) in
  let r1 = handle t q in
  check tstr "complete" "ok" (status r1);
  check tint "four ancestors" 4 (answer_count r1);
  check tbool "first is computed" false (cached r1);
  check tbool "second is cached" true (cached (handle t q));
  (* a delta through the rules invalidates the cached answer *)
  let add = env (P.Add [ atom "parent(eve, fay)" ]) in
  let ra = handle t add in
  check tstr "ack" "ok" (status ra);
  (match member "txn" ra with
  | Json.Int 1 -> ()
  | _ -> Alcotest.fail "first txn must be 1");
  let r3 = handle t q in
  check tbool "cache invalidated by the delta" false (cached r3);
  check tint "new ancestor visible" 5 (answer_count r3);
  check tbool "fay reached" true
    (List.mem "anc(ann, fay)" (answers r3));
  (* removal propagates through DRed and invalidates again *)
  let rr = handle t (env (P.Remove [ atom "parent(bob, cal)" ])) in
  check tstr "remove acked" "ok" (status rr);
  let r4 = handle t q in
  check tbool "eve no longer reachable" false
    (List.mem "anc(ann, eve)" (answers r4))

(* A saturated-mode read and an engine run answer one goal with the same
   list: both select and sort through the shared extraction.  The chain's
   facts are out of order, so insertion order is not the answer order. *)
let test_saturated_reads_sorted () =
  let program =
    Program.make
      ~facts:
        (List.map atom
           [ "par(3, 1)"; "par(5, 3)"; "par(1, 4)"; "par(4, 2)"; "par(5, 0)" ])
      [ rule "anc(X, Y) :- par(X, Y).";
        rule "anc(X, Y) :- par(X, Z), anc(Z, Y)."
      ]
  in
  List.iter
    (fun g ->
      (* a fresh server per goal, so no read is served from the cache *)
      let t = sup_exn program in
      let ask engine = handle t (env (P.Query { goal = atom g; engine })) in
      let saturated = ask false in
      let engine = ask true in
      check tstr "saturated ok" "ok" (status saturated);
      check tbool "saturated read computed" false (cached saturated);
      check tstr "engine ok" "ok" (status engine);
      check (Alcotest.list tstr) g (answers engine) (answers saturated))
    [ "anc(5, X)"; "anc(X, Y)"; "anc(X, 2)"; "par(X, Y)" ]

let test_mutation_validation_and_rollback () =
  let t = sup_exn (ancestor_program ()) in
  let before = Database.total_facts (Sup.db t) in
  (* non-ground and derived-predicate mutations are refused outright *)
  check tstr "non-ground refused" "error"
    (status (handle t (env (P.Add [ atom "parent(X, bob)" ]))));
  check tstr "derived refused" "error"
    (status (handle t (env (P.Add [ atom "anc(zz, ww)" ]))));
  (* a budget blown mid-propagation rolls the whole batch back *)
  let tight = { P.no_budgets with P.max_facts = Some 1 } in
  let r =
    handle t (env ~budgets:tight (P.Add [ atom "parent(cal, zed)" ]))
  in
  check tstr "exhausted batch is an error" "error" (status r);
  (match member "message" r with
  | Json.String m -> check tbool "explains the budget" true (contains ~sub:"budget" m)
  | _ -> Alcotest.fail "no message");
  check tint "database unchanged" before (Database.total_facts (Sup.db t));
  check tint "no transaction recorded" 0 (Sup.txn t)

let test_partial_reply () =
  (* engine-mode query under a tight budget: partial answers, explicit
     reason, nothing cached *)
  let explosive =
    Program.make
      ~facts:(List.init 12 (fun i -> Atom.app "d" [ Term.int i ]))
      [ rule "p(X, Y) :- d(X), d(Y)." ]
  in
  let t = sup_exn explosive in
  let tight = { P.no_budgets with P.max_facts = Some 10 } in
  let r =
    handle t (env ~budgets:tight (P.Query { goal = atom "p(X, Y)"; engine = true }))
  in
  check tstr "partial" "partial" (status r);
  (match member "reason" r with
  | Json.String reason -> check tstr "names the cap" "max-facts" reason
  | _ -> Alcotest.fail "no reason");
  check tbool "some answers" true (answer_count r > 0);
  check tbool "partial set is a strict subset" true (answer_count r < 144)

let test_negation_program_base_mode () =
  let t = sup_exn (negation_program ()) in
  check tbool "negation forces base mode" false (Sup.positive t);
  let q = env (P.Query { goal = atom "safe(X)"; engine = false }) in
  let r1 = handle t q in
  check tstr "engine answers" "ok" (status r1);
  check tint "two safe nodes" 2 (answer_count r1);
  check tbool "cached on repeat" true (cached (handle t q));
  (* base-mode mutation: plain tuple change, cache still invalidated *)
  let ra = handle t (env (P.Add [ atom "node(4)" ])) in
  check tstr "ack" "ok" (status ra);
  let r2 = handle t q in
  check tbool "invalidated" false (cached r2);
  check tint "new node is safe" 3 (answer_count r2)

(* ------------------------------------------------------------------ *)
(* Admission control *)

let test_admission_overload () =
  let config =
    { Sup.default_config with Sup.queue_depth = 4; session_inflight = 100 }
  in
  let t = sup_exn ~config (ancestor_program ()) in
  let now = Unix.gettimeofday () in
  let submit i =
    Sup.submit t ~session:1 ~now
      (env ~id:(Json.Int i) (P.Query { goal = atom "anc(ann, X)"; engine = false }))
  in
  (* queue depth K with K+M concurrent -> exactly M shed *)
  let outcomes = List.init 7 submit in
  let admitted =
    List.length (List.filter (fun o -> o = Sup.Admitted) outcomes)
  in
  let shed =
    List.length
      (List.filter (function Sup.Overloaded _ -> true | _ -> false) outcomes)
  in
  check tint "exactly K admitted" 4 admitted;
  check tint "exactly M shed" 3 shed;
  check tint "queue holds K" 4 (Sup.pending t);
  (* shed requests did no work; admitted ones all complete *)
  let replies = ref 0 in
  let rec drain () =
    match Sup.process_one t ~now:(Unix.gettimeofday ()) with
    | None -> ()
    | Some (_, reply, `Continue) ->
      check tstr "admitted request completes" "ok" (status reply);
      incr replies;
      drain ()
    | Some (_, _, `Stop) -> Alcotest.fail "no shutdown was requested"
  in
  drain ();
  check tint "every admitted request answered" 4 !replies;
  (* the queue drained: the next burst is admitted again *)
  check tbool "recovered after drain" true (submit 99 = Sup.Admitted)

let test_admission_session_cap () =
  let config =
    { Sup.default_config with Sup.queue_depth = 100; session_inflight = 2 }
  in
  let t = sup_exn ~config (ancestor_program ()) in
  let now = Unix.gettimeofday () in
  let submit session =
    Sup.submit t ~session ~now
      (env (P.Query { goal = atom "anc(ann, X)"; engine = false }))
  in
  check tbool "1st admitted" true (submit 1 = Sup.Admitted);
  check tbool "2nd admitted" true (submit 1 = Sup.Admitted);
  check tbool "3rd capped" true (submit 1 = Sup.Session_capped);
  (* the cap is per session: another client is unaffected *)
  check tbool "other session admitted" true (submit 2 = Sup.Admitted)

let test_deadline_expires_in_queue () =
  let t = sup_exn (ancestor_program ()) in
  let now = Unix.gettimeofday () in
  let tight = { P.no_budgets with P.timeout_s = Some 0.001 } in
  (match
     Sup.submit t ~session:1 ~now
       (env ~budgets:tight (P.Query { goal = atom "anc(ann, X)"; engine = false }))
   with
  | Sup.Admitted -> ()
  | _ -> Alcotest.fail "not admitted");
  (* the request waits past its deadline: answered with an error, never
     executed *)
  match Sup.process_one t ~now:(now +. 1.0) with
  | Some (_, reply, `Continue) ->
    check tstr "expired" "error" (status reply);
    (match member "message" reply with
    | Json.String m ->
      check tbool "names the deadline" true (contains ~sub:"deadline" m)
    | _ -> Alcotest.fail "no message")
  | _ -> Alcotest.fail "queued request vanished"

(* ------------------------------------------------------------------ *)
(* Recovery *)

let with_snapshot_config path =
  { Sup.default_config with Sup.snapshot_path = Some path }

let rm_state path =
  rm path;
  rm (path ^ ".wal")

let test_recovery_roundtrip () =
  let path = tmpfile () in
  Fun.protect ~finally:(fun () -> rm_state path) @@ fun () ->
  rm_state path;
  let config = with_snapshot_config path in
  let t = sup_exn ~config (ancestor_program ()) in
  check tbool "wal is on" true (Sup.wal_active t);
  check tstr "txn 1" "ok" (status (handle t (env (P.Add [ atom "parent(eve, fay)" ]))));
  check tstr "txn 2" "ok"
    (status (handle t (env (P.Remove [ atom "parent(bob, dan)" ]))));
  let facts_before = Database.total_facts (Sup.db t) in
  (* no base was ever installed: recovery is pure log replay over the
     program's own facts *)
  (match Wal.load path with
  | Ok { Wal.base = None; entries = [ _; _ ]; _ } -> ()
  | _ -> Alcotest.fail "expected a log of two transactions and no base");
  let t2 = sup_exn ~config (ancestor_program ()) in
  check tint "acked transactions recovered" 2 (Sup.txn t2);
  check tint "state recovered exactly" facts_before
    (Database.total_facts (Sup.db t2));
  let r = handle t2 (env (P.Query { goal = atom "anc(ann, X)"; engine = false })) in
  check tbool "fay survived the restart" true
    (List.mem "anc(ann, fay)" (answers r));
  check tbool "dan stayed removed" false (List.mem "anc(ann, dan)" (answers r))

let rotations t =
  match Json.member "wal" (Json.Obj (Sup.stats_fields t)) with
  | Some wal -> int_field "rotations" wal
  | None -> Alcotest.fail "stats lack the wal block"

let test_wal_rotation_and_recovery () =
  let path = tmpfile () in
  Fun.protect ~finally:(fun () -> rm_state path) @@ fun () ->
  rm_state path;
  (* a threshold between one small transaction and the database: the
     first, large batch rotates; the base it installs is itself larger
     than the threshold, yet the next small mutation must not rotate,
     since only bytes appended after the base count *)
  let config = { (with_snapshot_config path) with Sup.wal_max_bytes = 300 } in
  let t = sup_exn ~config (ancestor_program ()) in
  let batch =
    List.init 12 (fun i -> atom (Printf.sprintf "parent(eve, kid%d)" i))
  in
  check tstr "txn 1" "ok" (status (handle t (env (P.Add batch))));
  check tint "the large batch rotated" 1 (rotations t);
  (match Wal.load path with
  | Ok { Wal.base = Some _; entries = []; _ } -> ()
  | _ -> Alcotest.fail "a rotated log holds only its base");
  check tbool "the base outgrew the threshold" true
    ((Unix.stat path).Unix.st_size > config.Sup.wal_max_bytes);
  check tstr "txn 2" "ok"
    (status (handle t (env (P.Remove [ atom "parent(bob, dan)" ]))));
  check tint "a small mutation after a large base does not rotate" 1
    (rotations t);
  check tbool "one file: no log beside it" false
    (Sys.file_exists (path ^ ".wal") || Sys.file_exists (path ^ ".tmp"));
  let facts_before = Database.total_facts (Sup.db t) in
  (* recovery = base (txn 1) + one replayed transaction *)
  let t2 = sup_exn ~config (ancestor_program ()) in
  check tint "acked transactions recovered" 2 (Sup.txn t2);
  check tint "state recovered exactly" facts_before
    (Database.total_facts (Sup.db t2))

let test_idempotent_retry () =
  let path = tmpfile () in
  Fun.protect ~finally:(fun () -> rm_state path) @@ fun () ->
  rm_state path;
  let config = with_snapshot_config path in
  let t = sup_exn ~config (ancestor_program ()) in
  let add = env ~key:"k1" (P.Add [ atom "parent(eve, fay)" ]) in
  let r1 = handle t add in
  check tstr "first ack" "ok" (status r1);
  (match member "key" r1 with
  | Json.String "k1" -> ()
  | _ -> Alcotest.fail "ack does not echo the key");
  check tbool "first apply is not idempotent" true
    (Json.member "idempotent" r1 = None);
  let facts_after = Database.total_facts (Sup.db t) in
  (* the retry returns the original ack verbatim and applies nothing *)
  let r2 = handle t add in
  check tstr "retry acked" "ok" (status r2);
  (match member "idempotent" r2 with
  | Json.Bool true -> ()
  | _ -> Alcotest.fail "retry not marked idempotent");
  check tint "same txn" (int_field "txn" r1) (int_field "txn" r2);
  check tint "nothing re-applied" facts_after (Database.total_facts (Sup.db t));
  check tint "txn counter unchanged" 1 (Sup.txn t);
  (* the key survives a restart: the log carries it *)
  let t2 = sup_exn ~config (ancestor_program ()) in
  let r3 = handle t2 add in
  check tstr "post-restart retry acked" "ok" (status r3);
  (match member "idempotent" r3 with
  | Json.Bool true -> ()
  | _ -> Alcotest.fail "post-restart retry not idempotent");
  check tint "post-restart txn unchanged" 1 (Sup.txn t2);
  (* a different key is a different transaction *)
  let r4 = handle t2 (env ~key:"k2" (P.Add [ atom "parent(fay, gus)" ])) in
  check tstr "new key applies" "ok" (status r4);
  check tbool "new key is not idempotent" true
    (Json.member "idempotent" r4 = None);
  check tint "txn advanced" 2 (Sup.txn t2)

let test_wal_failed_apply_truncated () =
  let path = tmpfile () in
  Fun.protect ~finally:(fun () -> rm_state path) @@ fun () ->
  rm_state path;
  let config = with_snapshot_config path in
  let t = sup_exn ~config (ancestor_program ()) in
  check tstr "one good txn" "ok"
    (status (handle t (env (P.Add [ atom "parent(eve, fay)" ]))));
  (* a budget blown mid-propagation: the batch rolls back in memory AND
     its already-appended frame is cut back out of the log *)
  let tight = { P.no_budgets with P.max_facts = Some 1 } in
  check tstr "exhausted batch is an error" "error"
    (status (handle t (env ~budgets:tight (P.Add [ atom "parent(cal, zed)" ]))));
  check tint "txn did not advance" 1 (Sup.txn t);
  let t2 = sup_exn ~config (ancestor_program ()) in
  check tint "replay sees only the committed txn" 1 (Sup.txn t2);
  check tint "state agrees" (Database.total_facts (Sup.db t))
    (Database.total_facts (Sup.db t2))

let logging_config path log =
  { (with_snapshot_config path) with Sup.log = (fun l -> log := l :: !log) }

let test_recovery_damaged_base_refused () =
  let path = tmpfile () in
  Fun.protect ~finally:(fun () -> rm_state path) @@ fun () ->
  rm_state path;
  let log = ref [] in
  let config = logging_config path log in
  let t = sup_exn ~config (ancestor_program ()) in
  check tstr "acked" "ok" (status (handle t (env (P.Add [ atom "parent(eve, fay)" ]))));
  (* force a rotation so the file holds only a base *)
  (match Sup.snapshot_now t with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("rotation failed: " ^ msg));
  (* flip one byte inside the base: its CRC no longer matches, and a
     lenient load must not serve the rest under the old counter, which
     would silently drop acked facts *)
  let data = In_channel.with_open_bin path In_channel.input_all in
  let corrupted = Bytes.of_string data in
  let target = String.length data - 3 in
  Bytes.set corrupted target
    (Char.chr (Char.code (Bytes.get corrupted target) lxor 0x01));
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_bytes oc corrupted);
  (match Sup.start config (ancestor_program ()) with
  | Error (Sup.Corrupt_state _) -> ()
  | Error (Sup.Startup_failed msg) ->
    Alcotest.fail ("a damaged base is corrupt state, not: " ^ msg)
  | Ok _ -> Alcotest.fail "a damaged base must refuse to start");
  check tbool "strict failure was logged" true
    (contains ~sub:"strict load failed" (String.concat "\n" !log))

let test_recovery_torn_tail_salvaged () =
  let path = tmpfile () in
  Fun.protect ~finally:(fun () -> rm_state path) @@ fun () ->
  rm_state path;
  let log = ref [] in
  let config = logging_config path log in
  let t = sup_exn ~config (ancestor_program ()) in
  check tstr "txn 1" "ok" (status (handle t (env (P.Add [ atom "parent(eve, fay)" ]))));
  let one_txn = Database.total_facts (Sup.db t) in
  check tstr "txn 2" "ok" (status (handle t (env (P.Add [ atom "parent(fay, gus)" ]))));
  (* a crash mid-append: the file ends inside the second frame *)
  let size = (Unix.stat path).Unix.st_size in
  Unix.truncate path (size - 5);
  let t2 = sup_exn ~config (ancestor_program ()) in
  check tint "the torn transaction is dropped" 1 (Sup.txn t2);
  check tint "state is the first transaction's" one_txn
    (Database.total_facts (Sup.db t2));
  check tbool "the salvage was logged" true
    (contains ~sub:"discarding torn tail" (String.concat "\n" !log));
  (* the writer appends after the cut: a later restart reads clean *)
  check tstr "txn 2 again" "ok"
    (status (handle t2 (env (P.Add [ atom "parent(fay, hal)" ]))));
  check tint "clean reload" 2 (Sup.txn (sup_exn ~config (ancestor_program ())))

let test_unsafe_program_refused () =
  let program =
    Program.make ~facts:[ atom "q(1)" ] [ rule "wal(X) :- q(Y)." ]
  in
  match Sup.start Sup.default_config program with
  | Error (Sup.Startup_failed msg) ->
    check tbool "names the unlimited variable" true
      (contains ~sub:"not limited" msg)
  | Error (Sup.Corrupt_state msg) -> Alcotest.fail ("not corrupt state: " ^ msg)
  | Ok _ -> Alcotest.fail "an unsafe program must refuse to start"

(* ------------------------------------------------------------------ *)
(* End-to-end: the real binary over a Unix socket *)

(* dune runs the suite from _build/default/test; when invoked from
   elsewhere, resolve the binary relative to the test executable *)
let serve_exe =
  let local = "../bin/alexander_serve.exe" in
  if Sys.file_exists local then local
  else
    Filename.concat
      (Filename.dirname (Filename.dirname Sys.executable_name))
      "bin/alexander_serve.exe"

let connect_with_retry path =
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error _ ->
      Unix.close fd;
      if Unix.gettimeofday () > deadline then
        Alcotest.fail "server socket never came up"
      else begin
        ignore (Unix.select [] [] [] 0.05);
        go ()
      end
  in
  go ()

let spawn_server args =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process serve_exe
      (Array.of_list (serve_exe :: args))
      Unix.stdin Unix.stdout devnull
  in
  Unix.close devnull;
  pid

let wait_exit pid =
  let _, st = Unix.waitpid [] pid in
  match st with
  | Unix.WEXITED code -> code
  | Unix.WSIGNALED s -> Alcotest.fail (Printf.sprintf "killed by signal %d" s)
  | Unix.WSTOPPED _ -> Alcotest.fail "stopped"

let session_rpc socket_path lines =
  let fd = connect_with_retry socket_path in
  Fun.protect ~finally:(fun () -> try Unix.close fd with _ -> ()) @@ fun () ->
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  List.map
    (fun line ->
      output_string oc (line ^ "\n");
      flush oc;
      match In_channel.input_line ic with
      | Some reply -> Json.of_string reply
      | None -> Alcotest.fail ("no reply to: " ^ line))
    lines

let write_program path =
  Out_channel.with_open_text path (fun oc ->
      output_string oc
        "anc(X, Y) :- parent(X, Y).\n\
         anc(X, Y) :- parent(X, Z), anc(Z, Y).\n\
         parent(ann, bob).\n\
         parent(bob, cal).\n")

let test_e2e_session_and_restart () =
  let dir = Filename.temp_file "alexserve" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let program = Filename.concat dir "prog.dl" in
  let socket = Filename.concat dir "sock" in
  let snapshot = Filename.concat dir "state.alexsnap" in
  write_program program;
  let args =
    [ program; "--socket"; socket; "--snapshot"; snapshot; "--quiet" ]
  in
  Fun.protect ~finally:(fun () ->
      List.iter rm [ program; socket; snapshot; snapshot ^ ".wal" ];
      (try Sys.rmdir dir with Sys_error _ -> ()))
  @@ fun () ->
  (* session 1: observe, mutate, roll the mutation back, shut down *)
  let pid = spawn_server args in
  let replies =
    session_rpc socket
      [ {|{"op":"ping","id":0}|};
        {|{"op":"query","id":1,"goal":"anc(ann, X)"}|};
        {|{"op":"add","id":2,"facts":["parent(cal, eve)"]}|};
        {|{"op":"query","id":3,"goal":"anc(ann, X)"}|};
        {|{"op":"remove","id":4,"facts":["parent(cal, eve)"]}|};
        {|{"op":"add","id":5,"facts":["parent(cal, fin)"]}|};
        {|{"op":"query","id":6,"goal":"anc(ann, X)"}|};
        {|{"op":"shutdown","id":7}|}
      ]
  in
  check tint "clean exit" 0 (wait_exit pid);
  (match replies with
  | [ pong; q1; add1; q2; rem; add2; q3; byebye ] ->
    check tstr "pong ok" "ok" (status pong);
    check tint "two ancestors" 2 (answer_count q1);
    check tstr "add acked" "ok" (status add1);
    check tint "three after add" 3 (answer_count q2);
    check tstr "remove acked" "ok" (status rem);
    check tstr "second add acked" "ok" (status add2);
    check tbool "eve rolled back, fin present" true
      (List.mem "anc(ann, fin)" (answers q3)
      && not (List.mem "anc(ann, eve)" (answers q3)));
    (match Json.member "bye" byebye with
    | Some (Json.Bool true) -> ()
    | _ -> Alcotest.fail "no bye")
  | _ -> Alcotest.fail "wrong number of replies");
  (* session 2: a fresh process on the same snapshot sees the acked
     state — three transactions, fin reachable, eve not *)
  let pid2 = spawn_server args in
  let replies2 =
    session_rpc socket
      [ {|{"op":"stats","id":0}|};
        {|{"op":"query","id":1,"goal":"anc(ann, X)"}|};
        {|{"op":"shutdown","id":2}|}
      ]
  in
  check tint "clean exit again" 0 (wait_exit pid2);
  check tbool "the state is one file" false
    (Sys.file_exists (snapshot ^ ".wal"));
  match replies2 with
  | [ stats; q; _bye ] ->
    (match Json.member "txn" stats with
    | Some (Json.Int 3) -> ()
    | Some j -> Alcotest.fail ("wrong txn after restart: " ^ Json.to_line j)
    | None -> Alcotest.fail "stats lacks txn");
    check tbool "acked state survived the restart" true
      (List.mem "anc(ann, fin)" (answers q)
      && not (List.mem "anc(ann, eve)" (answers q)))
  | _ -> Alcotest.fail "wrong number of replies after restart"

(* Startup failures exit typed: unusable durable state is exit 8, any
   other refusal (a bad path, an unsafe program) exit 1. *)
let test_e2e_startup_exit_codes () =
  let dir = Filename.temp_file "alexserve" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let program = Filename.concat dir "prog.dl" in
  let unsafe = Filename.concat dir "unsafe.dl" in
  let socket = Filename.concat dir "sock" in
  let state = Filename.concat dir "state.log" in
  write_program program;
  Out_channel.with_open_text unsafe (fun oc ->
      output_string oc "wal(X) :- q(Y).\nq(1).\n");
  Fun.protect ~finally:(fun () ->
      List.iter rm [ program; unsafe; socket; state ];
      (try Sys.rmdir dir with Sys_error _ -> ()))
  @@ fun () ->
  (* a server that wrongly starts is killed, not waited on forever *)
  let exit_of prog snapshot =
    let pid =
      spawn_server [ prog; "--socket"; socket; "--snapshot"; snapshot; "--quiet" ]
    in
    let deadline = Unix.gettimeofday () +. 10.0 in
    let rec poll () =
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ when Unix.gettimeofday () < deadline ->
        ignore (Unix.select [] [] [] 0.05);
        poll ()
      | 0, _ ->
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid);
        Alcotest.fail "the server started instead of refusing"
      | _, Unix.WEXITED code -> code
      | _ -> Alcotest.fail "the server died of a signal"
    in
    poll ()
  in
  check tint "a missing directory exits 1" 1
    (exit_of program (Filename.concat dir "nodir/state.log"));
  check tint "an unsafe program exits 1" 1 (exit_of unsafe state);
  (* a base, then one flipped byte inside it *)
  let t =
    sup_exn
      ~config:(with_snapshot_config state)
      (Datalog_parser.Parser.(parse_file program |> Result.get_ok).program)
  in
  (match Sup.snapshot_now t with Ok () -> () | Error msg -> Alcotest.fail msg);
  let data = Bytes.of_string (In_channel.with_open_bin state In_channel.input_all) in
  let i = Bytes.length data - 3 in
  Bytes.set data i (Char.chr (Char.code (Bytes.get data i) lxor 0x01));
  Out_channel.with_open_bin state (fun oc -> Out_channel.output_bytes oc data);
  check tint "a flipped base byte exits 8" 8 (exit_of program state)

let test_e2e_overload_pipelined () =
  let dir = Filename.temp_file "alexserve" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let program = Filename.concat dir "prog.dl" in
  let socket = Filename.concat dir "sock" in
  write_program program;
  Fun.protect ~finally:(fun () ->
      List.iter rm [ program; socket ];
      (try Sys.rmdir dir with Sys_error _ -> ()))
  @@ fun () ->
  let pid =
    spawn_server
      [ program; "--socket"; socket; "--queue-depth"; "2";
        "--session-inflight"; "100"; "--quiet" ]
  in
  (* six queries in ONE write: the loop reads them all before executing
     any, so with queue depth 2 exactly four are shed *)
  let fd = connect_with_retry socket in
  let batch =
    String.concat ""
      (List.init 6 (fun i ->
           Printf.sprintf {|{"op":"query","id":%d,"goal":"anc(ann, X)"}|} i
           ^ "\n"))
  in
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  output_string oc batch;
  flush oc;
  let replies =
    List.init 6 (fun _ ->
        match In_channel.input_line ic with
        | Some line -> Json.of_string line
        | None -> Alcotest.fail "connection dropped mid-batch")
  in
  let shed =
    List.filter (fun r -> status r = "overloaded") replies
  in
  let served = List.filter (fun r -> status r = "ok") replies in
  check tint "exactly M shed" 4 (List.length shed);
  check tint "exactly K served" 2 (List.length served);
  List.iter
    (fun r ->
      match Json.member "retry_after_s" r with
      | Some (Json.Float f) -> check tbool "retry hint positive" true (f > 0.0)
      | _ -> Alcotest.fail "overloaded reply lacks retry_after_s")
    shed;
  ignore
    (session_rpc socket [ {|{"op":"shutdown","id":9}|} ]);
  (try Unix.close fd with _ -> ());
  check tint "clean exit" 0 (wait_exit pid)

(* ------------------------------------------------------------------ *)
(* Differential: saturated-mode mutations against recomputation *)

(* A random positive program and a few add/remove batches over its EDB
   ([e] and [f] on the 0..5 domain).  After every batch the supervisor's
   incrementally maintained database must equal a stratified run of the
   rules over the base facts as they now stand. *)
let batches_gen =
  let open QCheck.Gen in
  let fact =
    map3
      (fun pred a b -> Atom.app pred [ Term.int a; Term.int b ])
      (oneofl [ "e"; "f" ]) (int_bound 5) (int_bound 5)
  in
  list_size (int_range 1 6) (pair bool (list_size (int_range 1 5) fact))

let print_batches =
  QCheck.Print.list (fun (add, facts) ->
      Format.asprintf "%s %a"
        (if add then "add" else "remove")
        (Format.pp_print_list ~pp_sep:Format.pp_print_space Atom.pp)
        facts)

let prop_mutations_match_recompute =
  QCheck.Test.make ~name:"saturated mutations = recomputation" ~count:40
    (QCheck.pair Gen.arb_positive_program_idb_facts
       (QCheck.make ~print:print_batches batches_gen))
    (fun (program, batches) ->
      let t = sup_exn program in
      let base = ref (Program.facts program) in
      let all_facts db =
        Gen.db_facts_of (List.sort_uniq Pred.compare (Database.preds db)) db
      in
      List.for_all
        (fun (add, facts) ->
          let request = if add then P.Add facts else P.Remove facts in
          let reply = handle t (env request) in
          if status reply <> "ok" then
            QCheck.Test.fail_reportf "refused: %s" (Json.to_line reply);
          base :=
            if add then facts @ !base
            else
              List.filter
                (fun a -> not (List.exists (Atom.equal a) facts))
                !base;
          let expected =
            match
              Datalog_engine.Stratified.run
                (Program.make ~facts:!base (Program.rules program))
            with
            | Ok o -> all_facts o.Datalog_engine.Stratified.db
            | Error msg -> QCheck.Test.fail_report msg
          in
          all_facts (Sup.db t) = expected
          || QCheck.Test.fail_reportf "after %s: database differs"
               (print_batches [ (add, facts) ]))
        batches)

(* Every reply equals [Solve.run] over the rules plus the base facts as
   they stand after each batch: engine off and on, in both modes.  The
   negation programs always carry [p2(X, Y) :- f(X, Y), not p1(X, Y)], so
   the server keeps them in base mode. *)
let replies_gen =
  let open QCheck.Gen in
  let negation =
    map
      (fun p ->
        Program.make ~facts:(Program.facts p)
          (Program.rules p @ [ rule "p2(X, Y) :- f(X, Y), not p1(X, Y)." ]))
      (Gen.with_idb_facts Gen.stratified_program_gen)
  in
  triple
    (oneof [ Gen.with_idb_facts Gen.positive_program_gen; negation ])
    (list_size (int_range 1 3) Gen.bound_query_gen)
    batches_gen

let prop_replies_match_solve =
  QCheck.Test.make ~name:"server replies = Solve.run" ~count:40
    (QCheck.make
       ~print:(fun (p, goals, batches) ->
         Format.asprintf "%a@.goals: %a@.%s" Program.pp p
           (Format.pp_print_list ~pp_sep:Format.pp_print_space Atom.pp)
           goals (print_batches batches))
       replies_gen)
    (fun (program, goals, batches) ->
      let t = sup_exn program in
      let goals =
        goals @ List.map atom [ "p0(X, Y)"; "p1(X, Y)"; "p2(X, Y)"; "e(X, Y)" ]
      in
      let base = ref (Program.facts program) in
      let render goal tuples =
        List.map
          (fun tuple ->
            let buf = Buffer.create 16 in
            Tuple.add_atom buf (Atom.pred goal) tuple;
            Buffer.contents buf)
          tuples
      in
      let replies_match label =
        let current = Program.make ~facts:!base (Program.rules program) in
        List.for_all
          (fun goal ->
            let expected =
              match Alexander.Solve.run current goal with
              | Ok r -> render goal r.Alexander.Solve.answers
              | Error e -> QCheck.Test.fail_report (Alexander.Errors.message e)
            in
            List.for_all
              (fun engine ->
                let reply = handle t (env (P.Query { goal; engine })) in
                (status reply = "ok" && answers reply = expected)
                || QCheck.Test.fail_reportf "%s, %a (engine %b): %s" label
                     Atom.pp goal engine (Json.to_line reply))
              [ false; true ])
          goals
      in
      replies_match "at start"
      && List.for_all
           (fun (add, facts) ->
             let request = if add then P.Add facts else P.Remove facts in
             let reply = handle t (env request) in
             if status reply <> "ok" then
               QCheck.Test.fail_reportf "refused: %s" (Json.to_line reply);
             base :=
               if add then facts @ !base
               else
                 List.filter
                   (fun a -> not (List.exists (Atom.equal a) facts))
                   !base;
             replies_match
               (Format.asprintf "after %s" (print_batches [ (add, facts) ])))
           batches)

let suite =
  [ ( "server",
      [ Alcotest.test_case "protocol parse" `Quick test_parse_roundtrip;
        Alcotest.test_case "protocol replies" `Quick test_reply_shapes;
        Alcotest.test_case "cache exact + alpha" `Quick
          test_cache_exact_and_alpha;
        Alcotest.test_case "cache subsumption" `Quick test_cache_subsumption;
        Alcotest.test_case "cache lru + invalidation" `Quick
          test_cache_lru_and_invalidation;
        Alcotest.test_case "query, cache, deltas" `Quick
          test_query_cache_and_invalidation;
        Alcotest.test_case "mutation validation + rollback" `Quick
          test_mutation_validation_and_rollback;
        Alcotest.test_case "partial reply under budget" `Quick
          test_partial_reply;
        Alcotest.test_case "negation program, base mode" `Quick
          test_negation_program_base_mode;
        Alcotest.test_case "admission: overload is exact" `Quick
          test_admission_overload;
        Alcotest.test_case "admission: session cap" `Quick
          test_admission_session_cap;
        Alcotest.test_case "deadline expires in queue" `Quick
          test_deadline_expires_in_queue;
        Alcotest.test_case "recovery roundtrip" `Quick test_recovery_roundtrip;
        Alcotest.test_case "wal rotation + recovery" `Quick
          test_wal_rotation_and_recovery;
        Alcotest.test_case "saturated reads = engine answers" `Quick
          test_saturated_reads_sorted;
        Alcotest.test_case "idempotent retry" `Quick test_idempotent_retry;
        Alcotest.test_case "wal: failed apply truncated" `Quick
          test_wal_failed_apply_truncated;
        Alcotest.test_case "recovery: damaged base refused" `Quick
          test_recovery_damaged_base_refused;
        Alcotest.test_case "recovery: torn tail salvaged" `Quick
          test_recovery_torn_tail_salvaged;
        Alcotest.test_case "unsafe program refused" `Quick
          test_unsafe_program_refused;
        Alcotest.test_case "e2e session + restart" `Quick
          test_e2e_session_and_restart;
        Alcotest.test_case "e2e startup exit codes" `Quick
          test_e2e_startup_exit_codes;
        Alcotest.test_case "e2e overload" `Quick test_e2e_overload_pipelined;
        QCheck_alcotest.to_alcotest prop_mutations_match_recompute;
        QCheck_alcotest.to_alcotest prop_replies_match_solve
      ] )
  ]

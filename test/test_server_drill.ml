(* The serve loop's recovery invariant, drilled across a seeded
   kill-point matrix.

   The claim under test: with durable acks riding the write-ahead log,
   every acked mutation batch survives a kill-and-restart, and an
   unacked batch is either absent or fully applied — never torn.  Each
   seed deterministically picks a scripted run of keyed mutation batches
   and a kill point (the n-th Write, Fsync, Rename or Dirsync, or one of
   the named points between the transaction steps: post-append
   pre-fsync, post-fsync pre-apply, post-apply pre-ack, mid-rotation:
   the new base installed, the writer not yet moved onto it), runs the
   batches against a supervisor until the simulated process death,
   restarts from the one log (base + transactions), and checks

     recovered.txn ∈ {acked, acked + 1}

   AND that the recovered database is byte-identical to a fault-free
   replay of exactly the first [recovered.txn] batches.  The "+1" is the
   honest gap of ack-after-append: a batch can be durable while the
   client never saw its ack.

   Then the retry phase closes that gap: every batch is retried with its
   original idempotency key.  A batch the recovery kept must answer with
   its original ack ([idempotent:true], the original txn) and apply
   nothing; a batch the crash lost must apply fresh.  After the retries
   the state must equal a fault-free run of the whole script —
   exactly-once end to end.

   Some seeds force a rotation on every batch (a 1-byte rotation
   threshold) and some on every few (150 bytes, so acked batches also
   sit in the log after a base), so the base-install path, the writer's
   move onto the new log and the mid-rotation kill window are part of
   the matrix.  A seed whose kill point lives on the install path always
   rotates on every batch, and fails if its kill never fired.

   The seed count comes from SERVER_DRILL_SEEDS (an integer; CI runs at
   least 50); the default exercises 25 seeds. *)

open Datalog_ast
open Datalog_storage
module P = Datalog_server.Protocol
module Sup = Datalog_server.Supervisor
module Json = Datalog_engine.Json
module F = Faults

let atom = Datalog_parser.Parser.atom_of_string
let rule = Datalog_parser.Parser.rule_of_string

let seed_count =
  match Option.bind (Sys.getenv_opt "SERVER_DRILL_SEEDS") int_of_string_opt with
  | Some n when n > 0 -> n
  | _ -> 25

let ancestor_program () =
  Program.make
    ~facts:[ atom "parent(ann, bob)"; atom "parent(bob, cal)" ]
    [ rule "anc(X, Y) :- parent(X, Y).";
      rule "anc(X, Y) :- parent(X, Z), anc(Z, Y)."
    ]

let people = [| "ann"; "bob"; "cal"; "dan"; "eve"; "fay"; "gus"; "hal" |]

let batch_count = 8

(* The scripted run is a pure function of the seed, so the reference
   replay and the victim run see byte-identical batches.  Every batch
   carries its index as an idempotency key for the retry phase. *)
let batches_of rng =
  List.init batch_count (fun i ->
      let edge () =
        let a = people.(Random.State.int rng (Array.length people)) in
        let b = people.(Random.State.int rng (Array.length people)) in
        atom (Printf.sprintf "parent(%s, %s)" a b)
      in
      let facts = List.init (1 + Random.State.int rng 3) (fun _ -> edge ()) in
      let request =
        if Random.State.int rng 4 = 0 then P.Remove facts else P.Add facts
      in
      (Printf.sprintf "k%d" i, request))

(* One kill point per seed: an op of the log/install path, or a named
   point between the transaction steps.  Returns the plan, whether the
   kill point only exists when a base is installed (Rename/Dirsync and
   the mid-rotation window), and the rotation threshold.  Those kill
   points get a 1-byte threshold, so every batch installs a base and
   the n-th install (n < batch_count) is always reached; other seeds
   rotate on every batch, every few batches (150 bytes, so acked
   batches also sit in the log after a base) or never. *)
let kill_plan_of rng =
  let n = Random.State.int rng batch_count in
  let choice = Random.State.int rng 8 in
  let plan =
    match choice with
    | 0 -> F.crash_nth F.Write n
    | 1 -> F.crash_nth F.Fsync n
    | 2 -> F.crash_nth F.Rename n
    | 3 -> F.crash_nth F.Dirsync n
    | 4 -> F.crash_nth (F.Point "wal.appended") n
    | 5 -> F.crash_nth (F.Point "server.wal-synced") n
    | 6 -> F.crash_nth (F.Point "server.pre-ack") n
    | _ -> F.crash_nth (F.Point "server.rotate-installed") n
  in
  let needs_rotation = choice = 2 || choice = 3 || choice = 7 in
  let wal_max_bytes =
    if needs_rotation then 1
    else if not (Random.State.bool rng) then
      Sup.default_config.Sup.wal_max_bytes
    else if Random.State.bool rng then 1
    else 150
  in
  (plan, needs_rotation, wal_max_bytes)

let tmpdir () =
  let dir = Filename.temp_file "alexdrill" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  dir

let rmdir_r dir =
  Array.iter (fun f -> try Sys.remove (Filename.concat dir f) with _ -> ())
    (Sys.readdir dir);
  try Sys.rmdir dir with Sys_error _ -> ()

let sup_exn where config program =
  match Sup.create config program with
  | Ok t -> t
  | Error msg -> Alcotest.fail (where ^ ": " ^ msg)

let env ?key request =
  { P.req_id = Json.Null; budgets = P.no_budgets; idem_key = key; request }

let status reply =
  match Json.member "status" reply with
  | Some (Json.String s) -> s
  | _ -> Alcotest.fail "reply has no status"

let txn_of reply =
  match Json.member "txn" reply with
  | Some (Json.Int n) -> n
  | _ -> Alcotest.fail "reply has no txn"

let is_idempotent reply =
  match Json.member "idempotent" reply with
  | Some (Json.Bool true) -> true
  | _ -> false

(* The database as a sorted list of rendered facts: exact-state
   comparison independent of dictionary coding or insertion order. *)
let facts_of sup =
  let db = Sup.db sup in
  Database.preds db
  |> List.concat_map (fun p ->
         List.map
           (fun t -> Format.asprintf "%a" Atom.pp (Tuple.to_atom p t))
           (Database.tuples db p))
  |> List.sort compare

(* A fault-free replay of the first [prefix] batches on a fresh
   supervisor with no durability at all. *)
let reference_replay ~seed batches prefix =
  let reference =
    sup_exn "reference"
      { Sup.default_config with Sup.snapshot_path = None }
      (ancestor_program ())
  in
  List.iteri
    (fun i (_, request) ->
      if i < prefix then
        let reply, _ =
          Sup.handle reference ~now:(Unix.gettimeofday ()) (env request)
        in
        if status reply <> "ok" then
          Alcotest.fail
            (Printf.sprintf "seed %d: reference replay refused batch %d" seed i))
    batches;
  reference

let run_one_seed seed =
  let rng = Random.State.make [| 0x5eed; seed |] in
  let batches = batches_of rng in
  let plan, needs_rotation, wal_max_bytes = kill_plan_of rng in
  let dir = tmpdir () in
  Fun.protect ~finally:(fun () -> rmdir_r dir) @@ fun () ->
  let path = Filename.concat dir "state.alexsnap" in
  let config =
    { Sup.default_config with
      Sup.snapshot_path = Some path;
      wal_max_bytes
    }
  in
  (* the victim: created fault-free, killed mid-run *)
  let victim = sup_exn "victim" config (ancestor_program ()) in
  let acked = ref 0 in
  let crashed =
    try
      F.with_plan plan (fun () ->
          List.iter
            (fun (key, request) ->
              let reply, _ =
                Sup.handle victim ~now:(Unix.gettimeofday ())
                  (env ~key request)
              in
              if status reply <> "ok" then
                Alcotest.fail
                  (Printf.sprintf "seed %d: batch refused without a crash: %s"
                     seed (Json.to_line reply));
              incr acked)
            batches);
      false
    with F.Crashed _ -> true
  in
  if needs_rotation && not crashed then
    Alcotest.fail
      (Printf.sprintf "seed %d (%s): a rotation kill point never fired" seed
         plan.F.label);
  (* restart: memory is gone, only the log survives *)
  let recovered = sup_exn "recovery" config (ancestor_program ()) in
  let rtxn = Sup.txn recovered in
  if not (rtxn = !acked || rtxn = !acked + 1) then
    Alcotest.fail
      (Printf.sprintf
         "seed %d (%s): recovered txn %d but %d batches were acked%s" seed
         plan.F.label rtxn !acked
         (if crashed then " before the kill" else " and no kill fired"));
  if (not crashed) && rtxn <> batch_count then
    Alcotest.fail
      (Printf.sprintf "seed %d: no kill fired yet only %d/%d batches persisted"
         seed rtxn batch_count);
  (* exact state: a fault-free replay of the first rtxn batches *)
  let prefix_ref = reference_replay ~seed batches rtxn in
  Alcotest.(check (list string))
    (Printf.sprintf "seed %d (%s): recovered state = replay of %d acked batches"
       seed plan.F.label rtxn)
    (facts_of prefix_ref) (facts_of recovered)
  ;
  (* retry phase: the client resubmits every batch under its original
     key.  Kept batches answer with their original ack and apply
     nothing; lost batches apply fresh.  Either way batch i ends up as
     transaction i + 1 exactly once. *)
  List.iteri
    (fun i (key, request) ->
      let reply, _ =
        Sup.handle recovered ~now:(Unix.gettimeofday ()) (env ~key request)
      in
      if status reply <> "ok" then
        Alcotest.fail
          (Printf.sprintf "seed %d: retry of batch %d refused: %s" seed i
             (Json.to_line reply));
      let expect_idem = i < rtxn in
      if is_idempotent reply <> expect_idem then
        Alcotest.fail
          (Printf.sprintf
             "seed %d (%s): retry of batch %d (recovered txn %d) %s" seed
             plan.F.label i rtxn
             (if expect_idem then "re-applied instead of replaying the ack"
              else "claimed idempotence for a lost batch"));
      Alcotest.(check int)
        (Printf.sprintf "seed %d: retry of batch %d names its transaction"
           seed i)
        (i + 1) (txn_of reply))
    batches;
  Alcotest.(check int)
    (Printf.sprintf "seed %d: every batch committed exactly once" seed)
    batch_count (Sup.txn recovered);
  let full_ref = reference_replay ~seed batches batch_count in
  Alcotest.(check (list string))
    (Printf.sprintf "seed %d (%s): post-retry state = full fault-free run"
       seed plan.F.label)
    (facts_of full_ref) (facts_of recovered)

let prop_recovery_invariant =
  QCheck.Test.make ~name:"acked batches survive any kill point"
    ~count:seed_count
    (QCheck.make QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      run_one_seed seed;
      true)

let test_kill_points_actually_fire () =
  (* sanity on the drill itself: both named kill-points and the
     log/install path are reachable — a drill whose kills never fire
     proves nothing *)
  let hit ~rotate plan =
    let dir = tmpdir () in
    Fun.protect ~finally:(fun () -> rmdir_r dir) @@ fun () ->
    let path = Filename.concat dir "state.alexsnap" in
    let config =
      { Sup.default_config with
        Sup.snapshot_path = Some path;
        wal_max_bytes =
          (if rotate then 1 else Sup.default_config.Sup.wal_max_bytes)
      }
    in
    let t = sup_exn "victim" config (ancestor_program ()) in
    try
      F.with_plan plan (fun () ->
          ignore
            (Sup.handle t ~now:(Unix.gettimeofday ())
               (env (P.Add [ atom "parent(cal, dan)" ]))));
      false
    with F.Crashed _ -> true
  in
  List.iter
    (fun (name, rotate, plan) ->
      Alcotest.(check bool) (name ^ " fires") true (hit ~rotate plan))
    [ ("wal-appended", false, F.crash_point "wal.appended");
      ("wal-synced", false, F.crash_point "server.wal-synced");
      ("pre-ack", false, F.crash_point "server.pre-ack");
      ("rotate-installed", true, F.crash_point "server.rotate-installed");
      ("write", false, F.crash_nth F.Write 0);
      ("fsync", false, F.crash_nth F.Fsync 0);
      ("rename", true, F.crash_nth F.Rename 0)
    ]

let suite =
  [ ( "server-drill",
      Alcotest.test_case "kill points fire" `Quick test_kill_points_actually_fire
      :: List.map QCheck_alcotest.to_alcotest [ prop_recovery_invariant ] )
  ]

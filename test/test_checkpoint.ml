(* Checkpoint / resume: an interrupted evaluation, resumed from its
   checkpoint under a raised budget, reaches exactly the answers of an
   uninterrupted run — across engines, at clean round boundaries and
   mid-round, across strata, and across simulated process kills.  Also:
   context verification refuses foreign checkpoints, and exhausted
   incremental maintenance rolls the database back. *)

module O = Alexander.Options
module S = Alexander.Solve
module L = Datalog_engine.Limits
module Ck = Datalog_engine.Checkpoint
module I = Datalog_engine.Incremental
module F = Datalog_storage.Faults
module Sn = Datalog_storage.Snapshot
module Database = Datalog_storage.Database
module W = Alexander.Workloads

let check = Alcotest.check
let tbool = Alcotest.bool
let atom = Datalog_parser.Parser.atom_of_string

let ckpt_path () = Filename.temp_file "alexckpt" ".snap"
let rm path = try Sys.remove path with Sys_error _ -> ()

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    i + m <= n && (String.sub s i m = sub || go (i + 1))
  in
  go 0

let run_exn ~options ?resume_from program query =
  match S.run ~options ?resume_from program query with
  | Ok r -> r
  | Error e -> Alcotest.fail (Alexander.Errors.message e)

let load_exn path =
  match Ck.load path with
  | Ok (r, warnings) ->
    check tbool "clean checkpoint load" true (warnings = []);
    r
  | Error c -> Alcotest.fail (Sn.describe_corruption c)

(* -------------------------------------------------------------------- *)
(* The resume-equivalence property.

   Run [strategy] to completion, then again under [limits] with a
   checkpoint.  If the second run exhausted, load the checkpoint and
   resume without limits: the answers (and, when [compare_db], the whole
   IDB) must equal the uninterrupted run's.  A run that completes within
   [limits] has nothing to resume and passes trivially. *)

let resume_matches ?(compare_db = false) strategy limits (program, query) =
  let full = run_exn ~options:{ O.default with O.strategy } program query in
  let path = ckpt_path () in
  let ck = Ck.create ~path () in
  let options = { O.default with O.strategy; limits; checkpoint = ck } in
  let r1 = run_exn ~options program query in
  let ok =
    if not (S.incomplete r1) then true
    else begin
      check tbool "an exhausted run left a checkpoint" true (Ck.saves ck > 0);
      let resume = load_exn path in
      let r2 =
        run_exn
          ~options:{ O.default with O.strategy }
          ~resume_from:resume program query
      in
      r2.S.answers = full.S.answers
      && r2.S.status = Datalog_engine.Limits.Complete
      && (not compare_db
         ||
         let idb = Gen.idb_preds program in
         Gen.db_facts_of idb r2.S.db = Gen.db_facts_of idb full.S.db)
    end
  in
  rm path;
  ok

let strategies = [ O.Seminaive; O.Alexander; O.Tabled ]

let prop_resume_round_boundary =
  QCheck.Test.make
    ~name:"resume at a round boundary = uninterrupted (all engines)"
    ~count:25 Gen.arb_positive_program_query (fun pq ->
      List.for_all
        (fun strategy ->
          resume_matches strategy (L.make ~max_iterations:1 ()) pq)
        strategies)

(* max-facts trips in the middle of a round, exercising the merged-delta
   save path; 45 clears the generator's EDB (at most 40 base facts) so
   the interrupt lands inside the fixpoint proper *)
let prop_resume_midround =
  QCheck.Test.make
    ~name:"resume after a mid-round interrupt = uninterrupted" ~count:25
    Gen.arb_positive_program_query (fun pq ->
      List.for_all
        (fun strategy -> resume_matches strategy (L.make ~max_facts:45 ()) pq)
        strategies)

let prop_resume_stratified =
  QCheck.Test.make
    ~name:"resume across strata preserves stratified negation" ~count:25
    Gen.arb_stratified_program_query (fun pq ->
      resume_matches ~compare_db:true O.Seminaive
        (L.make ~max_iterations:1 ())
        pq
      && resume_matches ~compare_db:true O.Seminaive
           (L.make ~max_facts:45 ())
           pq)

(* Fact budgets that trip inside later rounds of a chain closure: the
   saved delta must hold the interrupted round's input and its partial
   output (facts already in the database, whose consequences the redone
   round would otherwise never derive).  The second leg's budget trips
   in the first round after the resume, whose delta was read back from
   the checkpoint rather than sliced from the database. *)
let test_resume_twice_midround () =
  let program = W.ancestor_chain 16 in
  let query = atom "anc(0, X)" in
  let seminaive = { O.default with O.strategy = O.Seminaive } in
  let full = run_exn ~options:seminaive program query in
  let path = ckpt_path () in
  let run limits resume_from =
    let options =
      { seminaive with O.limits; checkpoint = Ck.create ~path () }
    in
    run_exn ~options ?resume_from program query
  in
  List.iter
    (fun first ->
      let r1 = run (L.make ~max_facts:first ()) None in
      check tbool "first leg interrupted" true (S.incomplete r1);
      let r2 = run (L.make ~max_facts:(first + 5) ()) (Some (load_exn path)) in
      check tbool "second leg interrupted" true (S.incomplete r2);
      let r3 = run L.none (Some (load_exn path)) in
      check tbool
        (Printf.sprintf "resumed twice from %d facts: full answers" first)
        true
        (r3.S.answers = full.S.answers))
    [ 40; 53; 67; 80; 94; 105; 117 ];
  rm path

(* -------------------------------------------------------------------- *)
(* Continued logs: a run that resumes from the log its checkpoint writes
   appends round frames to that log instead of installing a new base *)

module Wal = Datalog_storage.Wal

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* a log's frame bodies, in order *)
let bodies data =
  match Wal.scan data with
  | Ok (spans, Wal.End) ->
    List.map (fun (s : Wal.span) -> String.sub data s.pos s.len) spans
  | _ -> Alcotest.fail "a checkpoint log scans clean"

let base_frames path =
  List.length
    (List.filter (String.starts_with ~prefix:"ckpt base") (bodies (read_file path)))

(* Interrupt, resume onto the same path and interrupt again, resume to
   the end: each leg extends the log the previous leg left, under its
   one base frame, and the answers are an uninterrupted run's.
   [prepare] may rewrite the first leg's log before it is resumed. *)
let continued_legs ?(prepare = ignore) program query =
  let seminaive = { O.default with O.strategy = O.Seminaive } in
  let full = run_exn ~options:seminaive program query in
  let path = ckpt_path () in
  let leg ?resume limits =
    run_exn
      ~options:{ seminaive with O.limits; checkpoint = Ck.create ~path () }
      ?resume_from:(Option.map load_exn resume) program query
  in
  let r1 = leg (L.make ~max_iterations:3 ()) in
  check tbool "first leg interrupted" true (S.incomplete r1);
  prepare path;
  let log1 = read_file path in
  let r2 = leg ~resume:path (L.make ~max_iterations:6 ()) in
  check tbool "second leg interrupted" true (S.incomplete r2);
  let log2 = read_file path in
  check tbool "the second leg appended to the first leg's log" true
    (String.length log2 > String.length log1
    && String.sub log2 0 (String.length log1) = log1);
  check tbool "one base frame after a continued leg" true (base_frames path = 1);
  let r3 = leg ~resume:path L.none in
  check tbool "the third leg completes" true (not (S.incomplete r3));
  check tbool "the third leg appended too" true
    (String.starts_with ~prefix:log2 (read_file path));
  check tbool "still one base frame" true (base_frames path = 1);
  check tbool "the answers of an uninterrupted run" true
    (r3.S.answers = full.S.answers);
  rm path

let test_continued_log () =
  continued_legs (W.ancestor_chain 16) (atom "anc(X, Y)")

(* Rotate the meanings of the log's even codes: every [d] line and fact
   field names its code's successor among them, so each code means what
   the next one means in this process (the log decodes to the same
   facts).  A continued leg must define each even code it writes again,
   or its facts would decode under the log's meanings. *)
let rotate_even_codes path =
  let data = read_file path in
  let frames = bodies data in
  let field_codes line =
    match String.split_on_char '\t' line with
    | d :: _ when String.starts_with ~prefix:"d " d ->
      [ int_of_string (String.sub d 2 (String.length d - 2)) ]
    | _ -> []
  in
  let codes =
    List.sort_uniq compare
      (List.concat_map
         (fun b -> List.concat_map field_codes (String.split_on_char '\n' b))
         frames)
  in
  check tbool "the log defines several even codes" true (List.length codes > 2);
  let next = Hashtbl.create 16 in
  List.iteri
    (fun i c -> Hashtbl.replace next c (List.nth codes ((i + 1) mod List.length codes)))
    codes;
  let map s =
    match int_of_string_opt s with
    | Some c when Hashtbl.mem next c -> string_of_int (Hashtbl.find next c)
    | _ -> s
  in
  let line l =
    match String.split_on_char '\t' l with
    | d :: rest when String.starts_with ~prefix:"d " d ->
      String.concat "\t" (("d " ^ map (String.sub d 2 (String.length d - 2))) :: rest)
    | f :: arity :: fields when String.starts_with ~prefix:"f " f ->
      String.concat "\t" (f :: arity :: List.map map fields)
    | _ -> l
  in
  let before = load_exn path in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc Wal.header;
      List.iter
        (fun b ->
          output_string oc
            (Wal.frame (String.concat "\n" (List.map line (String.split_on_char '\n' b)))))
        frames);
  let after = load_exn path in
  let facts r = Gen.db_facts_of (Database.preds r.Ck.r_db) r.Ck.r_db in
  check tbool "the rotated log decodes to the same facts" true (facts before = facts after)

let test_continued_log_foreign_codes () =
  let program =
    Datalog_parser.Parser.program_of_string
      (String.concat "\n"
         ("anc(X, Y) :- par(X, Y). anc(X, Y) :- par(X, Z), anc(Z, Y)."
         :: List.init 12 (fun i -> Printf.sprintf "par(n%d, n%d)." i (i + 1))))
  in
  continued_legs ~prepare:rotate_even_codes program (atom "anc(X, Y)")

(* -------------------------------------------------------------------- *)
(* Simulated kills: a crash after the n-th save leaves a valid
   checkpoint, and resuming it completes to the full answers *)

let test_kill_after_save_resumes () =
  let program = W.ancestor_chain 12 in
  let query = atom "anc(0, X)" in
  let seminaive = { O.default with O.strategy = O.Seminaive } in
  let full = run_exn ~options:seminaive program query in
  List.iter
    (fun n ->
      let path = ckpt_path () in
      let ck = Ck.create ~path ~kill_after_save:n () in
      let options = { seminaive with O.checkpoint = ck } in
      (match S.run ~options program query with
      | exception F.Crashed _ -> ()
      | Ok _ -> Alcotest.fail "the simulated kill must fire"
      | Error e -> Alcotest.fail (Alexander.Errors.message e));
      let resume = load_exn path in
      let r = run_exn ~options:seminaive ~resume_from:resume program query in
      check tbool
        (Printf.sprintf "kill after save %d resumes to the full answers" n)
        true
        (r.S.answers = full.S.answers);
      rm path)
    [ 1; 2; 3; 4 ]

(* every [every]-th round saves; a sparser cadence still resumes *)
let test_save_cadence () =
  let program = W.ancestor_chain 12 in
  let query = atom "anc(0, X)" in
  let seminaive = { O.default with O.strategy = O.Seminaive } in
  let full = run_exn ~options:seminaive program query in
  let path = ckpt_path () in
  let ck = Ck.create ~path ~every:3 () in
  let options =
    { seminaive with
      O.limits = L.make ~max_iterations:7 ();
      checkpoint = ck
    }
  in
  let r1 = run_exn ~options program query in
  check tbool "exhausted" true (S.incomplete r1);
  check tbool "saved less than once a round" true (Ck.saves ck <= 4);
  let r2 =
    run_exn ~options:seminaive ~resume_from:(load_exn path) program query
  in
  check tbool "sparse cadence still resumes" true
    (r2.S.answers = full.S.answers);
  rm path

(* -------------------------------------------------------------------- *)
(* The logged state.  What [Ck.load] returns after a kill right after the
   n-th save is exactly the database and delta the engine held at that
   save.  The database is the engine's own [db] object, captured in
   memory (nothing touches it after the kill).  The delta of the round
   that ended at session round j is what that round added: db_j minus
   db_(j-1), both captured the same way from every-round kills. *)

module St = Datalog_engine.Stratified

let facts db = Gen.db_facts_of (Database.preds db) db

(* one session: run to the kill after save [kill] (or to completion);
   the engine's database as it then stood, and the saves made *)
let session ?resume_from ?kill ~naive ~every ~path program =
  let db = Database.create () in
  let ck = Ck.create ~path ~every ?kill_after_save:kill () in
  Ck.set_context ck ~strategy:"state" ~query:"q";
  (match St.run ~checkpoint:ck ?resume_from ~db ~use_naive:naive program with
  | exception F.Crashed _ -> ()
  | Ok _ -> ()
  | Error msg -> Alcotest.fail msg);
  (db, Ck.saves ck)

let logged_states_match ~naive ~resumed program =
  let path = ckpt_path () in
  (* interrupt a first session after its second save; every later
     session resumes it afresh (a run adopts its resume's relations)
     with a checkpoint at a different path *)
  let first = ckpt_path () in
  if resumed then ignore (session ~kill:2 ~naive ~every:1 ~path:first program);
  let resume_from () = if resumed then Some (load_exn first) else None in
  let session ?kill ~every () =
    session ?resume_from:(resume_from ()) ?kill ~naive ~every ~path program
  in
  let rounds0 = match resume_from () with Some r -> r.Ck.r_rounds | None -> 0 in
  let before_first_round =
    let db = Database.create () in
    List.iter (fun a -> ignore (Database.add_atom db a)) (Datalog_ast.Program.facts program);
    Option.iter (fun r -> ignore (Database.union_into ~src:r.Ck.r_db ~dst:db))
      (resume_from ());
    facts db
  in
  let rounds = snd (session ~every:1 ()) in
  (* db_j for every session round j: index 0 is the state before round 1 *)
  let db_at =
    Array.init (rounds + 1) (fun j ->
        if j = 0 then before_first_round
        else facts (fst (session ~kill:j ~every:1 ())))
  in
  let ok =
    List.for_all
      (fun every ->
        (* save n of an every-[every] session ends session round j_n, the
           n-th j with (rounds0 + j) mod every = 0 *)
        let save_rounds =
          List.filter
            (fun j -> (rounds0 + j) mod every = 0)
            (List.init rounds (fun j -> j + 1))
        in
        List.for_all
          (fun (n, j) ->
            let db, _ = session ~kill:n ~every () in
            let r = load_exn path in
            let expected_delta =
              if naive then None
              else
                Some
                  (List.filter
                     (fun a -> not (List.mem a db_at.(j - 1)))
                     db_at.(j))
            in
            facts r.Ck.r_db = facts db
            && facts db = db_at.(j)
            && r.Ck.r_rounds = rounds0 + j
            && Option.map facts r.Ck.r_delta = expected_delta)
          (List.mapi (fun i j -> (i + 1, j)) save_rounds))
      [ 1; 3 ]
  in
  rm path;
  rm first;
  ok

(* the generated programs finish in a few rounds; a chain gives every
   cadence several round frames after the base *)
let test_logged_state_chain () =
  let program = W.ancestor_chain 12 in
  List.iter
    (fun (naive, resumed) ->
      check tbool
        (Printf.sprintf "chain, naive=%b resumed=%b" naive resumed)
        true
        (logged_states_match ~naive ~resumed program))
    [ (false, false); (false, true); (true, false); (true, true) ]

let prop_logged_state_naive =
  QCheck.Test.make ~name:"logged state = in-memory state at the save (naive)"
    ~count:10 Gen.arb_positive_program (fun program ->
      logged_states_match ~naive:true ~resumed:false program
      && logged_states_match ~naive:true ~resumed:true program)

let prop_logged_state_seminaive =
  QCheck.Test.make
    ~name:"logged state = in-memory state at the save (semi-naive)" ~count:10
    Gen.arb_positive_program (fun program ->
      logged_states_match ~naive:false ~resumed:false program
      && logged_states_match ~naive:false ~resumed:true program)

let prop_logged_state_stratified =
  QCheck.Test.make
    ~name:"logged state = in-memory state at the save (stratified negation)"
    ~count:10 Gen.arb_stratified_program (fun program ->
      logged_states_match ~naive:false ~resumed:false program
      && logged_states_match ~naive:false ~resumed:true program)

(* -------------------------------------------------------------------- *)
(* Context verification *)

let exhausted_checkpoint () =
  let program = W.ancestor_chain 12 in
  let query = atom "anc(0, X)" in
  let path = ckpt_path () in
  let ck = Ck.create ~path () in
  let options =
    { O.default with
      O.strategy = O.Seminaive;
      limits = L.make ~max_iterations:2 ();
      checkpoint = ck
    }
  in
  let r = run_exn ~options program query in
  check tbool "setup run exhausted" true (S.incomplete r);
  (program, query, path)

let expect_refusal ~options ?query ~needle (program, q0, path) =
  let query = Option.value ~default:q0 query in
  (match S.run ~options ~resume_from:(load_exn path) program query with
  | Ok _ -> Alcotest.fail "a mismatched resume must be refused"
  | Error e ->
    let msg = Alexander.Errors.message e in
    check tbool ("refusal mentions " ^ needle) true (contains msg needle));
  rm path

let test_refuses_wrong_strategy () =
  let ctx = exhausted_checkpoint () in
  expect_refusal
    ~options:{ O.default with O.strategy = O.Tabled }
    ~needle:"strategy" ctx

let test_refuses_wrong_query () =
  let ctx = exhausted_checkpoint () in
  expect_refusal
    ~options:{ O.default with O.strategy = O.Seminaive }
    ~query:(atom "anc(3, X)") ~needle:"query" ctx

let test_refuses_unresumable_evaluator () =
  (* the well-founded evaluator does not checkpoint or resume *)
  let program, query, path = exhausted_checkpoint () in
  (match
     S.run
       ~options:
         { O.default with O.strategy = O.Seminaive; negation = O.Well_founded }
       ~resume_from:(load_exn path) program query
   with
  | Ok _ -> Alcotest.fail "the well-founded evaluator must refuse a resume"
  | Error _ -> ());
  rm path

(* -------------------------------------------------------------------- *)
(* Transactional incremental maintenance *)

let saturate program =
  match Datalog_engine.Stratified.run program with
  | Ok outcome -> outcome.Datalog_engine.Stratified.db
  | Error msg -> Alcotest.fail msg

let cnt () = Datalog_engine.Counters.create ()
let always_cancelled = L.make ~cancelled:(fun () -> true) ()

let test_incremental_add_rolls_back () =
  let program = W.ancestor_chain 10 in
  let db = saturate program in
  let preds = Database.preds db in
  let before = Gen.db_facts_of preds db in
  (match
     I.add_facts (cnt ()) ~limits:always_cancelled program db
       [ atom "edge(10, 11)" ]
   with
  | Ok _ -> Alcotest.fail "expected exhaustion"
  | Error msg ->
    check tbool "error names the rollback" true (contains msg "rolled back"));
  check tbool "database restored to its pre-call state" true
    (before = Gen.db_facts_of preds db)

let test_incremental_remove_rolls_back () =
  let program = W.ancestor_chain 10 in
  let db = saturate program in
  let preds = Database.preds db in
  let before = Gen.db_facts_of preds db in
  (match
     I.remove_facts (cnt ()) ~limits:always_cancelled program db
       [ atom "edge(3, 4)" ]
   with
  | Ok _ -> Alcotest.fail "expected exhaustion"
  | Error msg ->
    check tbool "error names the rollback" true (contains msg "rolled back"));
  check tbool "database restored to its pre-call state" true
    (before = Gen.db_facts_of preds db)

let test_incremental_within_budget_still_works () =
  (* a budget that is not hit must not change behaviour *)
  let program = W.ancestor_chain 6 in
  let db = saturate program in
  (match
     I.add_facts (cnt ())
       ~limits:(L.make ~max_facts:100_000 ())
       program db
       [ atom "edge(6, 7)" ]
   with
  | Ok n -> check tbool "inserted" true (n > 0)
  | Error e -> Alcotest.fail e);
  check tbool "closure extended" true
    (Database.mem_atom db (atom "anc(0, 7)"))

let suite =
  [ ( "checkpoint",
      [ Alcotest.test_case "kill after nth save resumes" `Quick
          test_kill_after_save_resumes;
        Alcotest.test_case "resume twice, mid-round both times" `Quick
          test_resume_twice_midround;
        Alcotest.test_case "sparse save cadence" `Quick test_save_cadence;
        Alcotest.test_case "continued log" `Quick test_continued_log;
        Alcotest.test_case "continued log, foreign codes" `Quick
          test_continued_log_foreign_codes;
        Alcotest.test_case "logged state on a chain" `Quick
          test_logged_state_chain;
        Alcotest.test_case "refuses wrong strategy" `Quick
          test_refuses_wrong_strategy;
        Alcotest.test_case "refuses wrong query" `Quick
          test_refuses_wrong_query;
        Alcotest.test_case "refuses well-founded resume" `Quick
          test_refuses_unresumable_evaluator;
        Alcotest.test_case "exhausted add rolls back" `Quick
          test_incremental_add_rolls_back;
        Alcotest.test_case "exhausted remove rolls back" `Quick
          test_incremental_remove_rolls_back;
        Alcotest.test_case "unhit budget is inert" `Quick
          test_incremental_within_budget_still_works
      ] );
    ( "checkpoint:properties",
      List.map QCheck_alcotest.to_alcotest
        [ prop_resume_round_boundary;
          prop_resume_midround;
          prop_resume_stratified;
          prop_logged_state_naive;
          prop_logged_state_seminaive;
          prop_logged_state_stratified
        ] )
  ]

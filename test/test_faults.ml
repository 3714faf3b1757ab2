(* Deterministic fault injection over the persistence layer.

   The claim under test: however a database image install
   ([Snapshot.save_database], the path the server's rotation takes)
   fails — injected I/O error, short write, torn rename, simulated kill —
   no torn image is ever observable.  The target path always holds
   either the previous complete image or the new complete image, and
   every load after the fault either succeeds with correct data or fails
   with a typed corruption; never wrong data.

   The seed matrix comes from the FAULT_SEEDS environment variable
   (comma- or space-separated integers); the default exercises eight
   seeds. *)

open Datalog_ast
open Datalog_storage
module Sn = Snapshot
module F = Faults

let check = Alcotest.check
let tbool = Alcotest.bool

let tmpfile () = Filename.temp_file "alexfault" ".snap"

let tmpdir () =
  let dir = Filename.temp_file "alexfault" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  dir

let rm path = try Sys.remove path with Sys_error _ -> ()

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let seeds =
  match Sys.getenv_opt "FAULT_SEEDS" with
  | None | Some "" -> [ 1; 2; 3; 4; 5; 6; 7; 8 ]
  | Some s -> (
    match
      String.split_on_char ',' s
      |> List.concat_map (String.split_on_char ' ')
      |> List.filter_map int_of_string_opt
    with
    | [] -> Alcotest.fail ("FAULT_SEEDS holds no integers: " ^ s)
    | seeds -> seeds)

(* single-relation images of small ints, saved and loaded through the
   database image path: a Wal log installed as one base frame *)
let db_of ints =
  let db = Database.create () in
  List.iter
    (fun i -> ignore (Database.add db (Pred.make "data" 1) [| Code.of_int i |]))
    ints;
  db

let read_ints path =
  match Sn.load_database path with
  | Error c ->
    Alcotest.fail ("post-fault image unreadable: " ^ Sn.describe_corruption c)
  | Ok (db, _) ->
    List.map
      (fun t ->
        match Code.to_value t.(0) with
        | Value.Int i -> i
        | _ -> Alcotest.fail "sym")
      (Database.tuples db (Pred.make "data" 1))

let write_exn path ints =
  match Sn.save_database (db_of ints) path with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

type outcome = Committed | Failed | Crashed

(* Arm [plan], attempt to overwrite [path] (holding [old_ints]) with
   [new_ints], then verify the invariant: the path holds exactly the new
   image iff the write reported success or the fault struck at the
   post-rename directory sync (the install itself had already happened),
   and exactly the old image otherwise.  Returns the outcome and whether
   any fault actually fired. *)
let attempt_overwrite plan path ~old_ints ~new_ints =
  F.arm plan;
  let outcome =
    match Sn.save_database (db_of new_ints) path with
    | Ok () -> Committed
    | Error _ -> Failed
    | exception F.Crashed _ -> Crashed
  in
  let events = F.events () in
  let injected = events <> [] in
  F.disarm ();
  (* at most one fault fires per attempt (the first aborts the write);
     if it hit the dirsync, the rename had already installed the image *)
  let after_install = List.exists (contains ~sub:"dirsync") events in
  let expected =
    if outcome = Committed || after_install then new_ints else old_ints
  in
  check tbool "the path holds a complete image" true
    (read_ints path = expected);
  (outcome, injected)

let test_seed_matrix () =
  let faults_fired = ref 0 in
  let crashes = ref 0 in
  List.iter
    (fun seed ->
      let path = tmpfile () in
      let old_ints = List.init 5 (fun i -> (seed * 7) + i) in
      let new_ints = List.init 9 (fun i -> (seed * 13) + i) in
      write_exn path old_ints;
      let plan =
        F.seeded ~seed ~p_error:0.25 ~p_short:0.15 ~p_crash:0.15 ()
      in
      let outcome, injected =
        attempt_overwrite plan path ~old_ints ~new_ints
      in
      if injected then incr faults_fired;
      if outcome = Crashed then incr crashes;
      (* a faulted run may leave a stale temp file — that is the only
         debris the format permits *)
      rm (path ^ ".tmp");
      rm path)
    seeds;
  (* the matrix is pointless if no fault ever fires; the default seeds
     are chosen to inject plenty (deterministically, so this cannot
     flake) *)
  check tbool "at least one seed injected a fault" true (!faults_fired > 0)

(* -------------------------------------------------------------------- *)
(* Targeted faults: one per operation kind, both failure modes *)

let targeted plan ~expect =
  let path = tmpfile () in
  let old_ints = [ 1; 2; 3 ] in
  write_exn path old_ints;
  let outcome, _ = attempt_overwrite plan path ~old_ints ~new_ints:[ 9 ] in
  check tbool "expected failure mode" true (outcome = expect);
  (path, outcome)

let test_io_error_on_write () =
  let path, _ = targeted (F.fail_nth F.Write 0) ~expect:Failed in
  (* the error path cleans its temp file up *)
  check tbool "no temp left by a clean failure" false
    (Sys.file_exists (path ^ ".tmp"));
  rm path

let test_io_error_on_fsync () =
  let path, _ = targeted (F.fail_nth F.Fsync 0) ~expect:Failed in
  rm path

let test_io_error_on_rename () =
  let path, _ = targeted (F.fail_nth F.Rename 0) ~expect:Failed in
  rm path

let test_short_write_then_kill () =
  let path, _ = targeted (F.crash_nth F.Write 0) ~expect:Crashed in
  (* the "process" died: the torn bytes are in the temp file, never at
     the target *)
  check tbool "the torn image is only in the temp file" true
    (Sys.file_exists (path ^ ".tmp"));
  (match Sn.load_database (path ^ ".tmp") with
  | Ok _ -> Alcotest.fail "a short write must not read back as an image"
  | Error _ -> ());
  rm (path ^ ".tmp");
  rm path

let test_kill_before_fsync () =
  let path, _ = targeted (F.crash_nth F.Fsync 0) ~expect:Crashed in
  rm (path ^ ".tmp");
  rm path

let test_torn_rename () =
  let path, _ = targeted (F.crash_nth F.Rename 0) ~expect:Crashed in
  (* the rename never took effect: the new image sits complete in the
     temp file, the old one still at the path (checked by [targeted]) *)
  check tbool "complete new image in the temp file" true
    (match Sn.load_database (path ^ ".tmp") with Ok _ -> true | Error _ -> false);
  rm (path ^ ".tmp");
  rm path

let test_dirsync_kill () =
  (* a kill at the post-rename directory sync: the install has already
     happened, so recovery must see the complete NEW image — this is the
     kill-point that distinguishes the dirsync step from the rename *)
  let path = tmpfile () in
  write_exn path [ 1; 2; 3 ];
  F.arm (F.crash_nth F.Dirsync 0);
  (match Sn.save_database (db_of [ 9; 8 ]) path with
  | exception F.Crashed _ -> ()
  | Ok () -> Alcotest.fail "the dirsync kill must fire"
  | Error msg -> Alcotest.fail msg);
  check tbool "the kill was at the dirsync" true
    (List.exists (contains ~sub:"dirsync") (F.events ()));
  F.disarm ();
  check tbool "the new image survived the kill" true
    (read_ints path = [ 9; 8 ]);
  check tbool "the temp file was consumed by the rename" false
    (Sys.file_exists (path ^ ".tmp"));
  rm path

let test_dirsync_io_error () =
  (* an I/O error at the dirsync is reported (durability is uncertain),
     but the visible state is the complete new image, never a torn one *)
  let path = tmpfile () in
  write_exn path [ 1; 2; 3 ];
  F.arm (F.fail_nth F.Dirsync 0);
  let r = Sn.save_database (db_of [ 7 ]) path in
  F.disarm ();
  check tbool "dirsync failure surfaces as Error" true (Result.is_error r);
  check tbool "the installed image is complete" true (read_ints path = [ 7 ]);
  rm path

(* -------------------------------------------------------------------- *)
(* Concurrent-ish access: a reader that loads while a writer is
   mid-install must see either the old or the new complete image,
   never a torn one.  The fault hooks fire before each instrumented
   operation, so reading from inside the plan's [decide] observes the
   path at every interleaving point the writer passes through: before
   the temp write, before the fsync, before the rename (old image each
   time) and before the dirsync (after the rename: new image). *)

let test_reader_during_install () =
  let path = tmpfile () in
  let old_ints = [ 1; 2; 3 ] and new_ints = [ 40; 50 ] in
  write_exn path old_ints;
  let observations = ref [] in
  let spy =
    { F.label = "reader-spy";
      decide =
        (fun ~index:_ op ->
          (match op with
          | F.Write | F.Fsync | F.Rename | F.Dirsync ->
            observations := (op, read_ints path) :: !observations
          | _ -> ());
          F.Proceed)
    }
  in
  F.with_plan spy (fun () -> write_exn path new_ints);
  let seen = List.rev !observations in
  check tbool "the writer passed every interleaving point" true
    (List.length seen >= 4);
  List.iter
    (fun (op, ints) ->
      match op with
      | F.Dirsync ->
        (* after the rename: the reader must see the new complete image *)
        check tbool "post-rename reader sees the new image" true
          (ints = new_ints)
      | _ ->
        (* before the rename: the reader must see the old complete image *)
        check tbool "pre-rename reader sees the old image" true
          (ints = old_ints))
    seen;
  check tbool "final state is the new image" true (read_ints path = new_ints);
  rm path

let test_reader_after_torn_install () =
  (* the other order: the writer dies mid-write, then a reader loads —
     it must see the old complete image, and the torn bytes only ever
     exist in the temp file *)
  let path = tmpfile () in
  write_exn path [ 1; 2; 3 ];
  F.arm (F.crash_nth F.Write 0);
  (match Sn.save_database (db_of [ 9 ]) path with
  | exception F.Crashed _ -> ()
  | Ok () | Error _ -> Alcotest.fail "the mid-write kill must fire");
  F.disarm ();
  check tbool "reader after the torn install sees the old image" true
    (read_ints path = [ 1; 2; 3 ]);
  rm (path ^ ".tmp");
  rm path

(* -------------------------------------------------------------------- *)
(* The load seam: [read_file] is how every reader (snapshot, WAL)
   observes a file, so a short read here is a torn file to them *)

let test_read_faults () =
  let path = tmpfile () in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc "0123456789");
  F.arm (F.fail_nth F.Read 0);
  (match F.read_file path with
  | exception Sys_error _ -> ()
  | _ -> Alcotest.fail "injected read error must raise Sys_error");
  F.disarm ();
  let short =
    { F.label = "short-read";
      decide =
        (fun ~index:_ op ->
          match op with F.Read -> F.Short_write 0.5 | _ -> F.Proceed)
    }
  in
  let got = F.with_plan short (fun () -> F.read_file path) in
  check tbool "a short read returns a strict prefix" true
    (got = "01234");
  check tbool "an uninstrumented read is whole" true
    (F.read_file path = "0123456789");
  rm path

(* -------------------------------------------------------------------- *)
(* The Io writer shares the primitive: per-file atomicity across a
   multi-file database save *)

let test_mkdir_fault () =
  let dir = Filename.concat (tmpdir ()) "a/b" in
  let db = Database.create () in
  ignore (Database.add db (Pred.make "e" 1) [| Code.of_int 1 |]);
  F.arm (F.fail_nth F.Mkdir 0);
  let r = Io.save_database db dir in
  F.disarm ();
  check tbool "mkdir fault surfaces as Error" true (Result.is_error r)

let test_multi_file_save_is_per_file_atomic () =
  let dir = tmpdir () in
  let e = Pred.make "e" 1 and f = Pred.make "f" 1 in
  let db_old = Database.create () in
  ignore (Database.add db_old e [| Code.of_int 1 |]);
  ignore (Database.add db_old f [| Code.of_int 10 |]);
  (match Io.save_database db_old dir with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  let db_new = Database.create () in
  List.iter (fun i -> ignore (Database.add db_new e [| Code.of_int i |])) [ 1; 2 ];
  List.iter
    (fun i -> ignore (Database.add db_new f [| Code.of_int i |]))
    [ 10; 20 ];
  (* kill the process during the second file's write: the first relation
     is already (atomically) installed, the second must still hold its
     old contents *)
  F.arm (F.crash_nth F.Write 1);
  (match Io.save_database db_new dir with
  | exception F.Crashed _ -> ()
  | Ok () -> Alcotest.fail "the kill must fire"
  | Error msg -> Alcotest.fail msg);
  F.disarm ();
  match Io.load_directory dir with
  | Error msg -> Alcotest.fail ("post-crash directory unreadable: " ^ msg)
  | Ok atoms ->
    let rows pred =
      List.filter_map
        (fun a ->
          if Pred.name (Atom.pred a) = pred then
            match Atom.args a with
            | [| Term.Const (Value.Int i) |] -> Some i
            | _ -> None
          else None)
        atoms
      |> List.sort compare
    in
    let is_version got ~old_v ~new_v = got = old_v || got = new_v in
    check tbool "e is a complete old or new image" true
      (is_version (rows "e") ~old_v:[ 1 ] ~new_v:[ 1; 2 ]);
    check tbool "f is a complete old or new image" true
      (is_version (rows "f") ~old_v:[ 10 ] ~new_v:[ 10; 20 ])

(* -------------------------------------------------------------------- *)
(* A failed checkpoint save surfaces as a typed evaluation error *)

let test_checkpoint_save_failure_is_typed () =
  let program = Alexander.Workloads.ancestor_chain 10 in
  let query = Datalog_parser.Parser.atom_of_string "anc(0, X)" in
  let path = tmpfile () in
  let options =
    { Alexander.Options.default with
      Alexander.Options.strategy = Alexander.Options.Seminaive;
      checkpoint = Datalog_engine.Checkpoint.create ~path ()
    }
  in
  F.arm (F.fail_nth F.Write 0);
  let r = Alexander.Solve.run ~options program query in
  F.disarm ();
  (match r with
  | Ok _ -> Alcotest.fail "the injected save failure must surface"
  | Error e ->
    let msg = Alexander.Errors.message e in
    check tbool "names the checkpoint save" true
      (String.length msg >= 15 && String.sub msg 0 15 = "checkpoint save"));
  rm path

(* -------------------------------------------------------------------- *)
(* The checkpoint log: a base frame, then one appended frame per save.
   Whatever happens to an append, the log loads strictly as the state of
   one save, and resuming that state reaches the full answers. *)

module Ck = Datalog_engine.Checkpoint
module O = Alexander.Options
module S = Alexander.Solve

let ck_problem () =
  ( Alexander.Workloads.ancestor_chain 10,
    Datalog_parser.Parser.atom_of_string "anc(0, X)" )

let seminaive checkpoint =
  { O.default with O.strategy = O.Seminaive; checkpoint }

let facts_of db = Gen.db_facts_of (Database.preds db) db

(* what a resume sees: database, delta and round count *)
let ck_state (r : Ck.resume) =
  (facts_of r.Ck.r_db, Option.map facts_of r.Ck.r_delta, r.Ck.r_rounds)

let ck_load_exn ?mode path =
  match Ck.load ?mode path with
  | Ok (r, _) -> r
  | Error c -> Alcotest.fail ("checkpoint unreadable: " ^ Sn.describe_corruption c)

(* The state after each save of an unfaulted run, from kills right after
   it: [states.(n - 1)] is save n's.  Also the full answers. *)
let ck_reference () =
  let program, query = ck_problem () in
  let full =
    match S.run ~options:(seminaive Ck.none) program query with
    | Ok r -> r.S.answers
    | Error e -> Alcotest.fail (Alexander.Errors.message e)
  in
  let path = tmpfile () in
  let rec collect n acc =
    let ck = Ck.create ~path ~kill_after_save:n () in
    match S.run ~options:(seminaive ck) program query with
    | exception F.Crashed _ -> collect (n + 1) (ck_state (ck_load_exn path) :: acc)
    | _ -> Array.of_list (List.rev acc)
  in
  let states = collect 1 [] in
  rm path;
  (full, states)

let ck_resumes_fully ?mode ~full path =
  let program, query = ck_problem () in
  match
    S.run ~options:(seminaive Ck.none)
      ~resume_from:(ck_load_exn ?mode path)
      program query
  with
  | Ok r -> r.S.answers = full
  | Error e -> Alcotest.fail (Alexander.Errors.message e)

(* faults only on the frame appends: the writes and fsyncs after the
   base frame's install (its rename) *)
let appends_only plan =
  let installed = ref false in
  { plan with
    F.decide =
      (fun ~index op ->
        match op with
        | F.Rename ->
          installed := true;
          F.Proceed
        | (F.Write | F.Fsync) when !installed -> plan.F.decide ~index op
        | _ -> F.Proceed)
  }

let test_checkpoint_append_seed_matrix () =
  let program, query = ck_problem () in
  let full, states = ck_reference () in
  let fired = ref 0 in
  List.iter
    (fun seed ->
      List.iter
        (fun (kind, p_error, p_short, p_crash) ->
          let path = tmpfile () in
          let ck = Ck.create ~path () in
          let plan =
            appends_only (F.seeded ~seed ~p_error ~p_short ~p_crash ())
          in
          let outcome =
            F.with_plan plan (fun () ->
                match S.run ~options:(seminaive ck) program query with
                | r -> `Returned r
                | exception F.Crashed _ -> `Crashed)
          in
          let label what = Printf.sprintf "seed %d, %s: %s" seed kind what in
          let saves = Ck.saves ck in
          (match outcome with
          | `Returned (Ok r) ->
            check tbool (label "an unfaulted run completes") true
              (r.S.answers = full)
          | `Returned (Error e) ->
            incr fired;
            let msg = Alexander.Errors.message e in
            check tbool (label "a failed append is a typed save error") true
              (contains ~sub:"checkpoint save failed" msg)
          | `Crashed -> incr fired);
          check tbool (label "the base frame was installed") true (saves > 0);
          let loaded = ck_state (ck_load_exn ~mode:Sn.Strict path) in
          (* an error is cut back off the log: the last completed save; a
             crash may leave the in-flight frame whole on disk *)
          let acceptable =
            states.(saves - 1)
            :: (if outcome = `Crashed && saves < Array.length states then
                  [ states.(saves) ]
                else [])
          in
          check tbool (label "the log holds one save's state") true
            (List.mem loaded acceptable);
          check tbool (label "resuming reaches the full answers") true
            (ck_resumes_fully ~full path);
          rm path)
        [ ("error", 0.2, 0., 0.);
          ("short write", 0., 0.2, 0.);
          ("crash", 0., 0., 0.2)
        ])
    seeds;
  check tbool "faults fired on the append path" true (!fired > 0)

(* a log's bytes and the offset of each of its frames *)
let frames_of path =
  let data = In_channel.with_open_bin path In_channel.input_all in
  match Wal.scan data with
  | Ok (frames, Wal.End) -> (data, List.map (fun f -> f.Wal.at) frames)
  | _ -> Alcotest.fail "an unfaulted checkpoint scans clean"

let write_bytes path data =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc data)

(* a log of five saves, its bytes and frame offsets *)
let five_saves () =
  let program, query = ck_problem () in
  let path = tmpfile () in
  (match
     S.run
       ~options:(seminaive (Ck.create ~path ~kill_after_save:5 ()))
       program query
   with
  | exception F.Crashed _ -> ()
  | _ -> Alcotest.fail "the simulated kill must fire");
  let data, offsets = frames_of path in
  check tbool "one frame per save" true (List.length offsets = 5);
  (path, data, offsets)

let test_checkpoint_torn_tail () =
  let full, states = ck_reference () in
  let path, data, offsets = five_saves () in
  let last = List.nth offsets 4 in
  for cut = last to String.length data - 1 do
    write_bytes path (String.sub data 0 cut);
    List.iter
      (fun mode ->
        match Ck.load ~mode path with
        | Error c ->
          Alcotest.fail
            (Printf.sprintf "cut at %d: %s" cut (Sn.describe_corruption c))
        | Ok (r, warnings) ->
          check tbool "a torn tail is not damage" true (warnings = []);
          check tbool
            (Printf.sprintf "cut at %d resumes the fourth save" cut)
            true
            (ck_state r = states.(3)))
      [ Sn.Strict; Sn.Lenient ]
  done;
  check tbool "the cut log resumes to the full answers" true
    (ck_resumes_fully ~full path);
  rm path

(* A run resumed onto its own log continues it.  A kill right after the
   resumed run's first appended frame leaves the interrupted log plus
   that frame, which loads as the next save's state; cut anywhere inside
   that frame, the log loads as the interrupted run's last save.  Every
   outcome resumes to the full answers. *)
let test_checkpoint_kill_after_continued_append () =
  let program, query = ck_problem () in
  let full, states = ck_reference () in
  let path, data, offsets = five_saves () in
  let continue_and_kill () =
    let ck = Ck.create ~path ~kill_after_save:1 () in
    match S.run ~options:(seminaive ck) ~resume_from:(ck_load_exn path) program query with
    | exception F.Crashed _ -> ()
    | _ -> Alcotest.fail "the simulated kill must fire"
  in
  continue_and_kill ();
  let continued, offsets' = frames_of path in
  check tbool "one frame appended to the five" true
    (List.length offsets' = 6
    && String.sub continued 0 (String.length data) = data
    && List.filteri (fun i _ -> i < 5) offsets' = offsets);
  check tbool "the continued log holds the sixth save" true
    (ck_state (ck_load_exn ~mode:Sn.Strict path) = states.(5));
  check tbool "and resumes to the full answers" true (ck_resumes_fully ~full path);
  for cut = String.length data to String.length continued - 1 do
    write_bytes path (String.sub continued 0 cut);
    check tbool
      (Printf.sprintf "cut at %d resumes the fifth save" cut)
      true
      (ck_state (ck_load_exn ~mode:Sn.Strict path) = states.(4))
  done;
  check tbool "the cut log resumes to the full answers" true
    (ck_resumes_fully ~full path);
  (* a torn log is not continued: the resumed run installs a new base *)
  write_bytes path (String.sub continued 0 (String.length continued - 1));
  continue_and_kill ();
  let _, offsets'' = frames_of path in
  check tbool "a torn log is re-imaged" true (List.length offsets'' = 1);
  check tbool "as the sixth save" true
    (ck_state (ck_load_exn ~mode:Sn.Strict path) = states.(5));
  rm path

let test_checkpoint_flipped_byte () =
  let full, states = ck_reference () in
  let path, data, offsets = five_saves () in
  let flip i =
    let b = Bytes.of_string data in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x01));
    write_bytes path (Bytes.to_string b)
  in
  (* a byte inside the body of the third frame, well past its header *)
  let third = List.nth offsets 2 and fourth = List.nth offsets 3 in
  flip ((third + fourth) / 2);
  (match Ck.load ~mode:Sn.Strict path with
  | Error (Sn.Checksum_mismatch _) -> ()
  | Error c -> Alcotest.fail ("wrong class: " ^ Sn.describe_corruption c)
  | Ok _ -> Alcotest.fail "a damaged complete frame fails a strict load");
  (match Ck.load ~mode:Sn.Lenient path with
  | Ok (r, [ _ ]) ->
    check tbool "lenient resumes the frames before the damage" true
      (ck_state r = states.(1));
    check tbool "and completes from there" true
      (ck_resumes_fully ~mode:Sn.Lenient ~full path)
  | Ok _ -> Alcotest.fail "lenient names the damaged frame once"
  | Error c -> Alcotest.fail (Sn.describe_corruption c));
  (* damage to the base leaves nothing to resume in either mode *)
  flip (List.nth offsets 1 / 2);
  List.iter
    (fun mode ->
      match Ck.load ~mode path with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "a damaged base frame is unusable")
    [ Sn.Strict; Sn.Lenient ];
  rm path

let suite =
  [ ( "faults",
      [ Alcotest.test_case "seed matrix" `Quick test_seed_matrix;
        Alcotest.test_case "I/O error on write" `Quick test_io_error_on_write;
        Alcotest.test_case "I/O error on fsync" `Quick test_io_error_on_fsync;
        Alcotest.test_case "I/O error on rename" `Quick
          test_io_error_on_rename;
        Alcotest.test_case "short write + kill" `Quick
          test_short_write_then_kill;
        Alcotest.test_case "kill before fsync" `Quick test_kill_before_fsync;
        Alcotest.test_case "torn rename" `Quick test_torn_rename;
        Alcotest.test_case "dirsync kill-point" `Quick test_dirsync_kill;
        Alcotest.test_case "dirsync I/O error" `Quick test_dirsync_io_error;
        Alcotest.test_case "reader during install" `Quick
          test_reader_during_install;
        Alcotest.test_case "reader after torn install" `Quick
          test_reader_after_torn_install;
        Alcotest.test_case "read faults" `Quick test_read_faults;
        Alcotest.test_case "mkdir fault" `Quick test_mkdir_fault;
        Alcotest.test_case "multi-file save atomicity" `Quick
          test_multi_file_save_is_per_file_atomic;
        Alcotest.test_case "checkpoint save failure" `Quick
          test_checkpoint_save_failure_is_typed;
        Alcotest.test_case "checkpoint append seed matrix" `Quick
          test_checkpoint_append_seed_matrix;
        Alcotest.test_case "checkpoint torn tail" `Quick
          test_checkpoint_torn_tail;
        Alcotest.test_case "checkpoint flipped byte" `Quick
          test_checkpoint_flipped_byte;
        Alcotest.test_case "checkpoint kill after a continued append" `Quick
          test_checkpoint_kill_after_continued_append
      ] )
  ]

(* The write-ahead log in isolation: CRC framing, dictionary deltas,
   torn-tail behaviour, truncation, base frames and rotation.

   Three properties carry the module's contract:

   - round-trip: any sequence of appended transactions loads back
     exactly (txn ids, ops, idempotency keys, facts);
   - torn tail: a log cut at ANY byte offset inside its final frame
     loads leniently as exactly the preceding frames (with a [Torn]
     tail at the last frame boundary) and is refused outright in
     Strict mode — a torn write can cost at most the frame it tore;
   - replay ≡ direct apply: folding the loaded entries over a fresh
     database is byte-identical to applying the batches directly.

   Plus unit coverage for the edges: empty/absent/foreign files,
   version refusal, [truncate_last], a base frame under later
   transactions, rotation onto a new base, damage to a base, dictionary
   re-emission after a reopen, and a short read injected at the load
   seam. *)

open Datalog_ast
open Datalog_storage
module W = Wal
module F = Faults

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let atom = Datalog_parser.Parser.atom_of_string

let tmpfile () = Filename.temp_file "alexwal" ".wal"
let rm path = try Sys.remove path with Sys_error _ -> ()

let read_bytes path = In_channel.with_open_bin path In_channel.input_all

let write_bytes path data =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc data)

(* ------------------------------------------------------------------ *)
(* Deterministic generators *)

let syms = [| "ann"; "bob"; "carol"; "dissent"; "marker_one"; "x" |]

let gen_fact rng =
  let arg () =
    if Random.State.bool rng then
      syms.(Random.State.int rng (Array.length syms))
    else string_of_int (Random.State.int rng 1000)
  in
  if Random.State.bool rng then
    atom (Printf.sprintf "edge(%s, %s)" (arg ()) (arg ()))
  else atom (Printf.sprintf "label(%s)" (arg ()))

(* (txn, op, key, facts) scripts; txns sequential like the server's *)
let gen_script rng n =
  List.init n (fun i ->
      let facts =
        List.init (1 + Random.State.int rng 4) (fun _ -> gen_fact rng)
      in
      let op = if Random.State.int rng 3 = 0 then `Remove else `Add in
      let key =
        if Random.State.bool rng then Some (Printf.sprintf "key %d" i)
        else None
      in
      (i + 1, op, key, facts))

let open_exn ?fsync ?base_end ~valid_bytes path =
  match W.open_for_append ?fsync ?base_end ~valid_bytes path with
  | Ok w -> w
  | Error msg -> Alcotest.fail ("open_for_append: " ^ msg)

let append_exn w (txn, op, key, facts) =
  match W.append w ~txn ~op ?key facts with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("append: " ^ msg)

(* write the whole script, closing (hence flushing) the writer *)
let write_script ?fsync path script =
  let w = open_exn ?fsync ~valid_bytes:0 path in
  List.iter (append_exn w) script;
  let size = W.size w in
  W.close w;
  size

let load_exn ?mode path =
  match W.load ?mode path with
  | Ok log -> (log.W.entries, log.W.valid_bytes, log.W.tail)
  | Error c -> Alcotest.fail ("load: " ^ W.describe_corruption c)

let entry_matches (txn, op, key, facts) e =
  e.W.e_txn = txn && e.W.e_op = op && e.W.e_key = key
  && List.length facts = List.length e.W.e_facts
  && List.for_all2 Atom.equal facts e.W.e_facts

let check_script_loaded where script entries =
  check tint (where ^ ": entry count") (List.length script)
    (List.length entries);
  List.iteri
    (fun i (spec, e) ->
      if not (entry_matches spec e) then
        Alcotest.fail (Printf.sprintf "%s: entry %d does not match" where i))
    (List.combine script entries)

(* ------------------------------------------------------------------ *)
(* Properties *)

let prop_roundtrip =
  QCheck.Test.make ~name:"frames round-trip" ~count:50
    (QCheck.make QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Random.State.make [| 0xa1e; seed |] in
      let script = gen_script rng (1 + Random.State.int rng 6) in
      let path = tmpfile () in
      Fun.protect ~finally:(fun () -> rm path) @@ fun () ->
      rm path;
      let size = write_script ~fsync:W.Never path script in
      let entries, valid, tail = load_exn ~mode:W.Strict path in
      check tbool "clean tail" true (tail = W.Clean);
      check tint "valid bytes = writer position" size valid;
      check_script_loaded "roundtrip" script entries;
      true)

let prop_torn_tail =
  QCheck.Test.make ~name:"torn final frame truncates at every offset"
    ~count:12
    (QCheck.make QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Random.State.make [| 0x70a4; seed |] in
      let script = gen_script rng (2 + Random.State.int rng 3) in
      let prefix_script =
        List.filteri (fun i _ -> i < List.length script - 1) script
      in
      let path = tmpfile () in
      Fun.protect ~finally:(fun () -> rm path) @@ fun () ->
      rm path;
      (* the boundary of the final frame, from the writer's own count *)
      let w = open_exn ~fsync:W.Never ~valid_bytes:0 path in
      List.iter (append_exn w) prefix_script;
      let boundary = W.size w in
      append_exn w (List.nth script (List.length script - 1));
      W.close w;
      let data = read_bytes path in
      let full = String.length data in
      check tbool "the final frame is not empty" true (full > boundary);
      for cut = boundary to full - 1 do
        write_bytes path (String.sub data 0 cut);
        (* lenient: the preceding frames load, the torn frame is cut *)
        let entries, valid, tail = load_exn ~mode:W.Lenient path in
        check tint
          (Printf.sprintf "cut@%d: valid prefix is the frame boundary" cut)
          boundary valid;
        check_script_loaded
          (Printf.sprintf "cut@%d" cut)
          prefix_script entries;
        (match tail with
        | W.Torn { at; _ } ->
          check tint (Printf.sprintf "cut@%d: torn at the boundary" cut)
            boundary at
        | W.Clean ->
          if cut <> boundary then
            Alcotest.fail
              (Printf.sprintf "cut@%d: a torn tail reported Clean" cut));
        (* strict: anything torn is refused *)
        match W.load ~mode:W.Strict path with
        | Ok _ when cut <> boundary ->
          Alcotest.fail
            (Printf.sprintf "cut@%d: strict load accepted a torn tail" cut)
        | Ok _ | Error (W.Damaged _) -> ()
        | Error c ->
          Alcotest.fail
            (Printf.sprintf "cut@%d: wrong corruption: %s" cut
               (W.describe_corruption c))
      done;
      true)

(* the loaded log, folded over a fresh database, equals direct apply *)
let prop_replay_equals_direct =
  QCheck.Test.make ~name:"replay = direct apply" ~count:50
    (QCheck.make QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Random.State.make [| 0x4e91a; seed |] in
      let script = gen_script rng (2 + Random.State.int rng 6) in
      let apply db op facts =
        List.iter
          (fun a ->
            ignore
              (match op with
              | `Add -> Database.add_atom db a
              | `Remove -> Database.remove_atom db a))
          facts
      in
      let direct = Database.create () in
      List.iter (fun (_, op, _, facts) -> apply direct op facts) script;
      let path = tmpfile () in
      Fun.protect ~finally:(fun () -> rm path) @@ fun () ->
      rm path;
      ignore (write_script ~fsync:W.Never path script);
      let entries, _, _ = load_exn ~mode:W.Strict path in
      let replayed = Database.create () in
      List.iter (fun e -> apply replayed e.W.e_op e.W.e_facts) entries;
      let facts_of db =
        Database.preds db
        |> List.concat_map (fun p ->
               List.map
                 (fun t -> Format.asprintf "%a" Atom.pp (Tuple.to_atom p t))
                 (Database.tuples db p))
        |> List.sort compare
      in
      Alcotest.(check (list string))
        "replayed state = direct state" (facts_of direct) (facts_of replayed);
      true)

(* ------------------------------------------------------------------ *)
(* Edges *)

let test_empty_and_absent () =
  let path = tmpfile () in
  Fun.protect ~finally:(fun () -> rm path) @@ fun () ->
  rm path;
  (* no file at all: an empty log, cleanly *)
  (match W.load ~mode:W.Strict path with
  | Ok { W.base = None; entries = []; valid_bytes = 0; tail = W.Clean; _ } ->
    ()
  | _ -> Alcotest.fail "absent file should load as an empty log");
  (* a zero-byte file or a prefix of the header: torn at creation —
     lenient recovers to empty, strict refuses *)
  List.iter
    (fun data ->
      write_bytes path data;
      (match W.load ~mode:W.Lenient path with
      | Ok { W.entries = []; valid_bytes = 0; tail = W.Torn _; _ } -> ()
      | _ -> Alcotest.fail "a torn header should salvage to an empty log");
      match W.load ~mode:W.Strict path with
      | Error (W.Not_a_log _) -> ()
      | _ -> Alcotest.fail "a torn header must be refused strictly")
    [ ""; String.sub W.header 0 4 ];
  (* anything else is a foreign file (another format, say): refused in
     both modes, since salvaging it would overwrite it with a new log *)
  write_bytes path "not a log at all\njunk\n";
  List.iter
    (fun mode ->
      match W.load ~mode path with
      | Error (W.Not_a_log _) -> ()
      | _ -> Alcotest.fail "a foreign file must be refused in every mode")
    [ W.Strict; W.Lenient ]

let test_unsupported_version () =
  let path = tmpfile () in
  Fun.protect ~finally:(fun () -> rm path) @@ fun () ->
  write_bytes path "ALEXWAL 99\n";
  (* a future format is fatal in BOTH modes: salvaging frames we cannot
     understand would silently drop acked transactions *)
  List.iter
    (fun mode ->
      match W.load ~mode path with
      | Error (W.Unsupported_version 99) -> ()
      | _ -> Alcotest.fail "future version must be refused in every mode")
    [ W.Strict; W.Lenient ]

let test_truncate_last () =
  let path = tmpfile () in
  Fun.protect ~finally:(fun () -> rm path) @@ fun () ->
  rm path;
  let w = open_exn ~valid_bytes:0 path in
  append_exn w (1, `Add, None, [ atom "edge(ann, bob)" ]);
  (* the second frame introduces a fresh symbol, then is rolled back *)
  append_exn w (2, `Add, None, [ atom "edge(rollback_sym, bob)" ]);
  (match W.truncate_last w with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("truncate_last: " ^ msg));
  (* the rolled-back symbol must be re-emitted by a later frame, or the
     log would not decode *)
  append_exn w (2, `Add, None, [ atom "edge(rollback_sym, cal)" ]);
  W.close w;
  let entries, _, tail = load_exn ~mode:W.Strict path in
  check tbool "clean tail" true (tail = W.Clean);
  check tint "two entries" 2 (List.length entries);
  (match entries with
  | [ _; e2 ] ->
    check tbool "the re-appended txn 2 survived" true
      (List.exists (Atom.equal (atom "edge(rollback_sym, cal)")) e2.W.e_facts)
  | _ -> Alcotest.fail "unexpected entries")

let db_of_atoms atoms =
  let db = Database.create () in
  List.iter (fun a -> ignore (Database.add_atom db a)) atoms;
  db

let facts_of db =
  Database.preds db
  |> List.concat_map (fun p ->
         List.map
           (fun t -> Format.asprintf "%a" Atom.pp (Tuple.to_atom p t))
           (Database.tuples db p))
  |> List.sort compare

let load_log ?mode path =
  match W.load ?mode path with
  | Ok log -> log
  | Error c -> Alcotest.fail ("load: " ^ W.describe_corruption c)

let test_base_then_transactions () =
  let path = tmpfile () in
  Fun.protect ~finally:(fun () -> rm path) @@ fun () ->
  let image = db_of_atoms [ atom "edge(marker_one, bob)"; atom "label(7)" ] in
  let body, _ = W.base_body [ ("txn", "4"); ("a key", "a\tvalue") ] image in
  let base_end =
    match W.install path body with
    | Ok n -> n
    | Error msg -> Alcotest.fail ("install: " ^ msg)
  in
  (* the writer continues after the base; the base defined marker_one,
     so a frame using it may rely on that *)
  let w = open_exn ~base_end ~valid_bytes:base_end path in
  check tint "nothing appended since the base" 0 (W.appended w);
  append_exn w (5, `Add, Some "k", [ atom "edge(marker_one, cal)" ]);
  check tbool "appended counts only the transaction" true
    (W.appended w > 0 && W.appended w = W.size w - base_end);
  W.close w;
  let log = load_log ~mode:W.Strict path in
  check tint "base end" base_end log.W.base_end;
  (match log.W.base with
  | Some (meta, db) ->
    check tbool "meta round-trips" true
      (meta = [ ("txn", "4"); ("a key", "a\tvalue") ]);
    check tbool "image round-trips" true (facts_of db = facts_of image)
  | None -> Alcotest.fail "the base frame was not recognised");
  match log.W.entries with
  | [ e ] -> check tint "the transaction after the base" 5 e.W.e_txn
  | _ -> Alcotest.fail "expected one transaction"

let test_rotation () =
  let path = tmpfile () in
  Fun.protect ~finally:(fun () -> rm path) @@ fun () ->
  rm path;
  let w = open_exn ~valid_bytes:0 path in
  append_exn w (1, `Add, Some "k", [ atom "edge(marker_one, bob)" ]);
  (* rotation: install a base over the writer's file, then move the
     writer onto it *)
  let image = db_of_atoms [ atom "edge(marker_one, bob)" ] in
  let body, codes = W.base_body [ ("txn", "1") ] image in
  let len =
    match W.install path body with
    | Ok n -> n
    | Error msg -> Alcotest.fail ("install: " ^ msg)
  in
  (match W.reopen w ~codes with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("reopen: " ^ msg));
  check tint "the writer sits at the new base's end" len (W.size w);
  check tint "nothing appended since the new base" 0 (W.appended w);
  (match load_log ~mode:W.Strict path with
  | { W.base = Some _; entries = []; tail = W.Clean; _ } -> ()
  | _ -> Alcotest.fail "a rotated log holds only its base");
  (* the base defines marker_one: the next frame need not, and a frame
     introducing a new symbol still carries its own delta *)
  append_exn w (2, `Add, None, [ atom "edge(marker_one, rollback_sym)" ]);
  W.close w;
  let log = load_log ~mode:W.Strict path in
  (match log.W.entries with
  | [ e ] ->
    check tbool "post-rotation frame decodes" true
      (List.exists
         (Atom.equal (atom "edge(marker_one, rollback_sym)"))
         e.W.e_facts)
  | _ -> Alcotest.fail "unexpected entries");
  (* a second reopen with nothing installed is a no-op *)
  let w = open_exn ~base_end:log.W.base_end ~valid_bytes:log.W.valid_bytes path in
  let size = W.size w in
  (match W.reopen w ~codes:[] with
  | Ok () -> check tint "no install, no move" size (W.size w)
  | Error msg -> Alcotest.fail msg);
  W.close w

(* a base is installed atomically, so no crash tears it: a flipped byte
   anywhere in it, its frame header included, fails in both modes *)
let test_damaged_base_is_fatal () =
  let path = tmpfile () in
  Fun.protect ~finally:(fun () -> rm path) @@ fun () ->
  let body, _ =
    W.base_body [ ("txn", "1") ] (db_of_atoms [ atom "edge(ann, bob)" ])
  in
  let data =
    match W.install path body with
    | Ok _ -> read_bytes path
    | Error msg -> Alcotest.fail msg
  in
  for i = String.length W.header to String.length data - 1 do
    let b = Bytes.of_string data in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x01));
    write_bytes path (Bytes.to_string b);
    List.iter
      (fun mode ->
        match W.load ~mode path with
        | Error (W.Damaged _) -> ()
        | Ok _ ->
          Alcotest.fail (Printf.sprintf "flip at %d: a damaged base loaded" i)
        | Error c ->
          Alcotest.fail
            (Printf.sprintf "flip at %d: wrong class: %s" i
               (W.describe_corruption c)))
      [ W.Strict; W.Lenient ]
  done

let test_zero_filled_frame_salvages () =
  (* under --fsync never|interval a power loss can leave the last
     frame's header line on disk but its body zero-filled; that is a
     torn tail even when it is the log's first frame *)
  let path = tmpfile () in
  Fun.protect ~finally:(fun () -> rm path) @@ fun () ->
  let script =
    [ (1, `Add, Some "k1", [ atom "edge(ann, bob)" ]);
      (2, `Add, None, [ atom "edge(bob, cal)" ]) ]
  in
  List.iter
    (fun kept ->
      rm path;
      let boundary = write_script path (List.filteri (fun i _ -> i < kept) script) in
      ignore (write_script path script);
      let data = read_bytes path in
      let body = String.index_from data boundary '\n' + 1 in
      write_bytes path
        (String.sub data 0 body ^ String.make (String.length data - body) '\000');
      let where = Printf.sprintf "zero-filled frame %d" (kept + 1) in
      let entries, valid, tail = load_exn ~mode:W.Lenient path in
      check tint (where ^ ": valid prefix") boundary valid;
      check_script_loaded where (List.filteri (fun i _ -> i < kept) script) entries;
      check tbool (where ^ ": torn at the frame") true
        (match tail with W.Torn { at; _ } -> at = boundary | W.Clean -> false);
      match W.load ~mode:W.Strict path with
      | Error (W.Damaged { offset; _ }) ->
        check tint (where ^ ": strict names the frame") boundary offset
      | _ -> Alcotest.fail (where ^ ": strict load must refuse it"))
    [ 0; 1 ]

let test_reopen_reemits_dictionary () =
  let path = tmpfile () in
  Fun.protect ~finally:(fun () -> rm path) @@ fun () ->
  rm path;
  (* writer 1 defines a symbol, then the process "dies" *)
  let size = write_script path [ (1, `Add, None, [ atom "edge(marker_one, bob)" ]) ] in
  (* writer 2 (a restart) has an empty written-set: its frames must not
     assume the dead writer's deltas *)
  let w = open_exn ~valid_bytes:size path in
  append_exn w (2, `Add, None, [ atom "edge(marker_one, cal)" ]);
  W.close w;
  let entries, _, tail = load_exn ~mode:W.Strict path in
  check tbool "clean tail" true (tail = W.Clean);
  check tint "both writers' frames load" 2 (List.length entries);
  match entries with
  | [ e1; e2 ] ->
    check tbool "writer 1 frame" true
      (List.exists (Atom.equal (atom "edge(marker_one, bob)")) e1.W.e_facts);
    check tbool "writer 2 frame decodes via its own delta" true
      (List.exists (Atom.equal (atom "edge(marker_one, cal)")) e2.W.e_facts)
  | _ -> Alcotest.fail "unexpected entries"

let test_short_read_salvage () =
  (* the Faults.Read seam: a short read at load time looks exactly like
     a torn file and must salvage the readable prefix *)
  let path = tmpfile () in
  Fun.protect ~finally:(fun () -> rm path) @@ fun () ->
  rm path;
  let script =
    [ (1, `Add, None, [ atom "edge(ann, bob)" ]);
      (2, `Add, None, [ atom "edge(bob, cal)" ]) ]
  in
  ignore (write_script path script);
  let plan =
    { F.label = "short-read";
      decide =
        (fun ~index:_ op ->
          match op with F.Read -> F.Short_write 0.9 | _ -> F.Proceed)
    }
  in
  F.with_plan plan (fun () ->
      match W.load ~mode:W.Lenient path with
      | Ok { W.entries; tail = W.Torn _; _ } ->
        check tbool "a strict prefix survived the short read" true
          (List.length entries < 2)
      | Ok { W.tail = W.Clean; _ } ->
        Alcotest.fail "a 90% read cannot be a clean load"
      | Error c -> Alcotest.fail (W.describe_corruption c))

let test_fsync_policy_parsing () =
  check tbool "always" true (W.fsync_policy_of_string "always" = Ok W.Always);
  check tbool "never" true (W.fsync_policy_of_string "never" = Ok W.Never);
  check tbool "interval default" true
    (W.fsync_policy_of_string "interval" = Ok (W.Interval 0.05));
  check tbool "interval arg" true
    (W.fsync_policy_of_string "interval:0.5" = Ok (W.Interval 0.5));
  check tbool "bad interval" true
    (Result.is_error (W.fsync_policy_of_string "interval:-1"));
  check tbool "unknown" true (Result.is_error (W.fsync_policy_of_string "nope"))

(* ------------------------------------------------------------------ *)
(* The streaming decoder against the split-based oracle (frame_oracle.ml)

   A random log holds meta frames (checkpoint and base heads) and
   transaction frames written line by line, not through the encoder:
   escaped names, symbols, keys and meta entries, dictionary ints beyond
   the small range, arities 0 to 3, empty frames, and [d] lines that
   redefine an even code a previous line or frame defined.  Each frame is
   decoded in place from the scanned log by [Wal] and from a copy of its
   body by the oracle, each decoder with its own dictionary carried
   across frames. *)

module Oracle = Frame_oracle

let names = [| "p"; "edge"; "db:anc"; "tbl:0"; "a b"; "back\\slash"; "t\tn\nr\r"; "" |]
let sym_names = [| "ann"; "with space"; "back\\"; "t\tab"; ""; "x:y"; "-1" |]
let big_ints = [| max_int; min_int; (max_int asr 1) + 1; (min_int asr 1) - 1; 1 lsl 61 |]
let stored_codes = [| 0; 2; 4; -2; -8; 1 lsl 40 |]

type frame_kind = Meta | Txn

let pick rng a = a.(Random.State.int rng (Array.length a))

(* one frame body; [defined] holds the even codes the log has defined *)
let gen_body rng ~defined =
  let b = Buffer.create 256 in
  let line fmt = Printf.bprintf b fmt in
  let dict =
    List.init (Random.State.int rng 4) (fun _ ->
        let code = pick rng stored_codes in
        defined := code :: !defined;
        let v =
          match Random.State.int rng 3 with
          | 0 -> Value.int (pick rng big_ints)
          | 1 -> Value.int (Random.State.int rng 100)
          | _ -> Value.sym (pick rng sym_names)
        in
        Printf.sprintf "d %d\t%s\n" code (W.encode_value v))
  in
  let facts =
    List.init (Random.State.int rng 6) (fun _ ->
        let arity = Random.State.int rng 4 in
        let code () =
          match !defined with
          | _ :: _ as ds when Random.State.int rng 3 = 0 ->
            List.nth ds (Random.State.int rng (List.length ds))
          | _ ->
            if Random.State.bool rng then (2 * Random.State.int rng 50) + 1
            else max_int
        in
        String.concat ""
          ([ "f "; W.escape (pick rng names); "\t"; string_of_int arity ]
          @ List.init arity (fun _ -> "\t" ^ string_of_int (code ()))
          @ [ "\n" ]))
  in
  let kind = if Random.State.bool rng then Meta else Txn in
  (match kind with
  | Meta ->
    let meta =
      List.init (Random.State.int rng 3) (fun _ ->
          (pick rng sym_names, pick rng names))
    in
    line "%s %d %d %d\n"
      (pick rng [| "ckpt base"; "ckpt round"; "base" |])
      (List.length meta) (List.length dict) (List.length facts);
    List.iter (fun (k, v) -> line "m %s\t%s\n" (W.escape k) (W.escape v)) meta
  | Txn ->
    line "txn %d %s %d %d %s\n" (Random.State.int rng 1000)
      (if Random.State.bool rng then "add" else "remove")
      (List.length facts) (List.length dict)
      (if Random.State.bool rng then "-" else "k:" ^ W.escape (pick rng sym_names)));
  List.iter (Buffer.add_string b) dict;
  List.iter (Buffer.add_string b) facts;
  (kind, Buffer.contents b)

let gen_log rng =
  let defined = ref [] in
  List.init (1 + Random.State.int rng 4) (fun _ -> gen_body rng ~defined)

(* byte edits that keep the body's CRC honest (the frame is re-framed) *)
let mutate rng body =
  (* structural bytes, escape bytes and digits, weighted towards the
     backslash so escapes break often enough to be compared *)
  let alphabet = "\t\n \\\\\\-+_0123456789dfmnrstix:k\000" in
  let edit s =
    let n = String.length s in
    let c = String.make 1 alphabet.[Random.State.int rng (String.length alphabet)] in
    let i = Random.State.int rng (n + 1) in
    match Random.State.int rng 3 with
    | 0 when i < n -> String.sub s 0 i ^ c ^ String.sub s (i + 1) (n - i - 1)
    | 1 when i < n -> String.sub s 0 i ^ String.sub s (i + 1) (n - i - 1)
    | _ -> String.sub s 0 i ^ c ^ String.sub s i (n - i)
  in
  let rec go k s = if k = 0 then s else go (k - 1) (edit s) in
  go (1 + Random.State.int rng 2) body

let dict_contents d = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) d [])

(* both decoders' results in one shape: a head (a meta frame's kind; a
   transaction's id, op and key), the meta entries and the facts *)
type decoded = {
  head : string;
  meta : (string * string) list;
  facts : (string * int * Tuple.t) list;
}

let streamed_facts facts =
  let out = ref [] in
  W.iter_runs facts (fun name arity tuples first n ->
      for i = first to first + n - 1 do
        out := (name, arity, tuples.(i)) :: !out
      done);
  List.rev !out

let txn_head txn op key =
  Printf.sprintf "%d %s %s" txn
    (match op with `Add -> "add" | `Remove -> "remove")
    (Option.value key ~default:"-")

let streamed ~dict data kind (span : W.span) =
  match kind with
  | Meta ->
    Result.map
      (fun (head, meta, facts) -> { head; meta; facts = streamed_facts facts })
      (W.decode_meta_body ~dict data ~pos:span.pos ~len:span.len)
  | Txn ->
    Result.map
      (fun e ->
        { head = txn_head e.W.e_txn e.W.e_op e.W.e_key;
          meta = [];
          facts =
            List.map
              (fun a ->
                let p = Atom.pred a in
                (Pred.name p, Pred.arity p, Tuple.of_atom a))
              e.W.e_facts
        })
      (W.decode_txn ~dict data ~pos:span.pos ~len:span.len)

let oracle ~dict kind body =
  match kind with
  | Meta ->
    Result.map
      (fun (words, meta, facts) -> { head = String.concat " " words; meta; facts })
      (Oracle.meta_body ~dict body)
  | Txn ->
    Result.map
      (fun (txn, op, key, facts) -> { head = txn_head txn op key; meta = []; facts })
      (Oracle.txn_body ~dict body)

(* Decode every frame of [bodies] with both decoders, each with its own
   dictionary, up to the first frame either refuses: both must refuse
   that frame, and before it agree on every frame's head, meta entries,
   facts and resulting dictionary.  [Ok n]: they agree, on [n] accepted
   frames; [Error] names the first disagreement. *)
let decoders_agree bodies =
  let data =
    W.header ^ String.concat "" (List.map (fun (_, b) -> W.frame b) bodies)
  in
  match W.scan data with
  | Ok (spans, W.End) ->
    let sdict = Hashtbl.create 16 and odict = Hashtbl.create 16 in
    let rec go i = function
      | [] -> Ok i
      | ((kind, body), span) :: rest -> (
        match (streamed ~dict:sdict data kind span, oracle ~dict:odict kind body) with
        | Error _, Error _ -> Ok i
        | Ok s, Ok o when s = o && dict_contents sdict = dict_contents odict ->
          go (i + 1) rest
        | Ok _, Ok _ -> Error (Printf.sprintf "frame %d decodes differently: %S" i body)
        | Ok _, Error reason ->
          Error (Printf.sprintf "frame %d: only the oracle refuses (%s): %S" i reason body)
        | Error reason, Ok _ ->
          Error (Printf.sprintf "frame %d: only the stream refuses (%s): %S" i reason body))
    in
    go 0 (List.combine bodies spans)
  | _ -> Error "a framed log scans clean"

let agree ?all bodies =
  match decoders_agree bodies with
  | Ok n when all = None || n = List.length bodies -> true
  | Ok n -> QCheck.Test.fail_reportf "only %d of %d valid frames decode" n (List.length bodies)
  | Error msg -> QCheck.Test.fail_report msg

let prop_decoders_agree =
  QCheck.Test.make ~name:"streaming decoder = split decoder on valid frames"
    ~count:300
    (QCheck.make QCheck.Gen.(int_bound 1_000_000))
    (fun seed -> agree ~all:() (gen_log (Random.State.make [| 0xdec0; seed |])))

let prop_decoders_agree_mutated =
  QCheck.Test.make
    ~name:"streaming and split decoders accept the same mutated frames"
    ~count:2000
    (QCheck.make QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Random.State.make [| 0xbad; seed |] in
      let bodies = gen_log rng in
      let victim = Random.State.int rng (List.length bodies) in
      agree
        (List.mapi
           (fun i (kind, body) ->
             if i = victim then (kind, mutate rng body) else (kind, body))
           bodies))

let suite =
  [ ( "wal",
      [ Alcotest.test_case "empty + absent + foreign" `Quick
          test_empty_and_absent;
        Alcotest.test_case "unsupported version" `Quick
          test_unsupported_version;
        Alcotest.test_case "truncate_last" `Quick test_truncate_last;
        Alcotest.test_case "base then transactions" `Quick
          test_base_then_transactions;
        Alcotest.test_case "rotation onto a base" `Quick test_rotation;
        Alcotest.test_case "damaged base is fatal" `Quick
          test_damaged_base_is_fatal;
        Alcotest.test_case "zero-filled frame salvages" `Quick
          test_zero_filled_frame_salvages;
        Alcotest.test_case "reopen re-emits dictionary" `Quick
          test_reopen_reemits_dictionary;
        Alcotest.test_case "short read salvages" `Quick
          test_short_read_salvage;
        Alcotest.test_case "fsync policy parsing" `Quick
          test_fsync_policy_parsing
      ]
      @ List.map QCheck_alcotest.to_alcotest
          [ prop_roundtrip;
            prop_torn_tail;
            prop_replay_equals_direct;
            prop_decoders_agree;
            prop_decoders_agree_mutated
          ] )
  ]

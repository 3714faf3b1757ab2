(* Snapshot format: round-trips (including hostile symbols and
   dictionary-encoded big ints), layered corruption detection (magic /
   version / truncation / dictionary / per-section CRC / manifest),
   lenient per-section degradation, atomic installation, and backward
   compatibility with the tagged-value format 1. *)

open Datalog_ast
open Datalog_storage
module Sn = Snapshot

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let tstr = Alcotest.string

let tmpfile () = Filename.temp_file "alexsnap" ".snap"
let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let file_lines path = String.split_on_char '\n' (read_file path)
let write_lines path ls = write_file path (String.concat "\n" ls)

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None else if String.sub s i m = sub then Some i else go (i + 1)
  in
  go 0

(* replace the first occurrence of [needle] in the file — a targeted,
   size-preserving "bit flip" *)
let corrupt path ~needle ~replacement =
  let data = read_file path in
  match find_sub data needle with
  | None -> Alcotest.fail ("corruption target not found: " ^ needle)
  | Some i ->
    let j = i + String.length needle in
    write_file path
      (String.sub data 0 i ^ replacement
      ^ String.sub data j (String.length data - j))

(* Format 2 stores tuples as raw code integers whose exact digits depend
   on interning order, so body corruption cannot target a literal needle:
   instead, flip the first digit of the [offset]-th line after the first
   line starting with [after]. *)
let corrupt_body path ~after ~offset =
  let ls = file_lines path in
  let rec find i = function
    | [] -> Alcotest.fail ("corruption target not found: " ^ after)
    | l :: _ when starts_with after l -> i + offset
    | _ :: rest -> find (i + 1) rest
  in
  let target = find 0 ls in
  write_lines path
    (List.mapi
       (fun i l ->
         if i <> target then l
         else
           let c = l.[0] in
           let c' = if c = '9' then '8' else Char.chr (Char.code c + 1) in
           String.make 1 c' ^ String.sub l 1 (String.length l - 1))
       ls)

(* tuples in test expectations are written as values and encoded *)
let enc vs = Array.of_list (List.map Code.of_value vs)

let tuple_equal a b =
  Array.length a = Array.length b
  && (let ok = ref true in
      Array.iteri (fun i v -> if not (Code.equal v b.(i)) then ok := false) a;
      !ok)

let tuples_equal ts us =
  List.length ts = List.length us && List.for_all2 tuple_equal ts us

let write_exn ?meta ~sections path =
  match Sn.write ?meta ~sections path with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let read_exn ?mode path =
  match Sn.read ?mode path with
  | Ok c -> c
  | Error c -> Alcotest.fail (Sn.describe_corruption c)

let crc s = Crc32.to_hex (Crc32.string s)

(* -------------------------------------------------------------------- *)
(* Round trips *)

let weird_sym = "a b\tc\\d\ne\rf \\s"

let test_roundtrip () =
  let path = tmpfile () in
  let meta = [ ("kind", "test"); ("key with space", "v\talue\\n") ] in
  let sections =
    [ ( "alpha",
        2,
        [ enc [ Value.int 1; Value.sym "one" ];
          enc [ Value.int (-3); Value.sym weird_sym ];
          (* max_int does not fit the arithmetic encoding: this row
             exercises the side dictionary through the snapshot *)
          enc [ Value.int max_int; Value.sym "" ]
        ] );
      ("beta section", 1, [ enc [ Value.sym "keep me" ] ]);
      ("empty", 3, []);
      (* arity-0 sections are real: the magic-family rewritings seed
         nullary call predicates *)
      ("nullary", 0, [ [||] ])
    ]
  in
  write_exn ~meta ~sections path;
  let c = read_exn path in
  check tbool "no warnings" true (c.Sn.warnings = []);
  check tbool "meta preserved" true (c.Sn.meta = meta);
  check tint "all sections back" (List.length sections)
    (List.length c.Sn.sections);
  List.iter2
    (fun (name, arity, tuples) s ->
      check tstr "section name" name s.Sn.s_name;
      check tint "section arity" arity s.Sn.s_arity;
      check tbool "section tuples" true (tuples_equal tuples s.Sn.s_tuples))
    sections c.Sn.sections;
  Sys.remove path

let test_db_roundtrip () =
  let db = Database.create () in
  let e = Pred.make "e" 2 in
  ignore (Database.add db e (enc [ Value.int 1; Value.sym "x y" ]));
  ignore (Database.add db e (enc [ Value.int 2; Value.sym "z" ]));
  (* "42" the symbol survives: the snapshot format is typed, unlike Io *)
  ignore (Database.add db (Pred.make "label" 1) (enc [ Value.sym "42" ]));
  let path = tmpfile () in
  (match Sn.save_database db path with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  match Sn.load_database path with
  | Error c -> Alcotest.fail (Sn.describe_corruption c)
  | Ok (db2, warnings) ->
    check tbool "no warnings" true (warnings = []);
    let preds = Database.preds db in
    check tbool "facts preserved" true
      (Gen.db_facts_of preds db = Gen.db_facts_of preds db2);
    check tbool "symbolic 42 stays a symbol" true
      (List.exists
         (fun t -> Code.equal t.(0) (Code.of_value (Value.sym "42")))
         (Database.tuples db2 (Pred.make "label" 1)));
    Sys.remove path

let test_duplicate_section_rejected () =
  let path = tmpfile () in
  match
    Sn.write
      ~sections:[ ("dup", 1, [ [| Code.of_int 1 |] ]); ("dup", 1, []) ]
      path
  with
  | Ok () -> Alcotest.fail "duplicate sections must be rejected"
  | Error msg ->
    check tbool "names the duplicate" true (find_sub msg "duplicate" <> None)

let test_overwrite_leaves_no_tmp () =
  let path = tmpfile () in
  let sections = [ ("a", 1, [ [| Code.of_int 1 |] ]) ] in
  write_exn ~sections path;
  write_exn ~sections path;
  check tbool "no stale temp file" false (Sys.file_exists (path ^ ".tmp"));
  Sys.remove path

(* -------------------------------------------------------------------- *)
(* Corruption, layer by layer *)

let write_two path =
  write_exn
    ~sections:
      [ ( "alpha",
          2,
          [ enc [ Value.int 1; Value.sym "one" ];
            enc [ Value.int 2; Value.sym "two" ]
          ] );
        ("beta", 1, [ enc [ Value.sym "survivor" ] ])
      ]
    path

let test_bad_magic () =
  let path = tmpfile () in
  write_two path;
  corrupt path ~needle:"ALEXSNAP 2" ~replacement:"BOGUSFMT 2";
  (match Sn.read path with
  | Error (Sn.Not_a_snapshot _) -> ()
  | Error c -> Alcotest.fail ("wrong class: " ^ Sn.describe_corruption c)
  | Ok _ -> Alcotest.fail "bad magic must be rejected");
  Sys.remove path

let test_unsupported_version () =
  let path = tmpfile () in
  write_two path;
  corrupt path ~needle:"ALEXSNAP 2" ~replacement:"ALEXSNAP 9";
  (match Sn.read path with
  | Error (Sn.Unsupported_version 9) -> ()
  | Error c -> Alcotest.fail ("wrong class: " ^ Sn.describe_corruption c)
  | Ok _ -> Alcotest.fail "future versions must be rejected");
  Sys.remove path

let test_truncation_detected () =
  let path = tmpfile () in
  (* a torn write: only a prefix of the file reached the disk — here it
     ends inside the dictionary block *)
  write_two path;
  let ls = file_lines path in
  write_lines path
    (List.filteri (fun i _ -> i < 4) ls);
  (match Sn.read path with
  | Error (Sn.Truncated _) -> ()
  | Error c -> Alcotest.fail ("wrong class: " ^ Sn.describe_corruption c)
  | Ok _ -> Alcotest.fail "a torn prefix must be rejected");
  (* a file missing only its end marker *)
  write_two path;
  let ls = file_lines path in
  write_lines path
    (List.filter (fun l -> not (starts_with "end ALEXSNAP" l)) ls);
  (match Sn.read path with
  | Error (Sn.Truncated what) ->
    check tbool "names the end marker" true (find_sub what "end" <> None)
  | Error c -> Alcotest.fail ("wrong class: " ^ Sn.describe_corruption c)
  | Ok _ -> Alcotest.fail "a missing end marker must be rejected");
  (* truncation is structural: Lenient refuses it too *)
  (match Sn.read ~mode:Sn.Lenient path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "lenient mode must still reject truncation");
  Sys.remove path

let test_bitflip_strict () =
  let path = tmpfile () in
  write_two path;
  corrupt_body path ~after:"section alpha " ~offset:1;
  (match Sn.read path with
  | Error (Sn.Checksum_mismatch { section; _ }) ->
    check tstr "names the damaged section" "alpha" section
  | Error c -> Alcotest.fail ("wrong class: " ^ Sn.describe_corruption c)
  | Ok _ -> Alcotest.fail "a flipped byte must fail the section checksum");
  Sys.remove path

let test_bitflip_lenient_skips_section () =
  let path = tmpfile () in
  write_two path;
  corrupt_body path ~after:"section alpha " ~offset:1;
  let c = read_exn ~mode:Sn.Lenient path in
  check tint "one warning" 1 (List.length c.Sn.warnings);
  let w = List.hd c.Sn.warnings in
  check tstr "warning names alpha" "alpha" w.Sn.w_section;
  (match w.Sn.w_corruption with
  | Sn.Checksum_mismatch _ -> ()
  | _ -> Alcotest.fail "warning must carry the checksum mismatch");
  check tint "undamaged section survives" 1 (List.length c.Sn.sections);
  let s = List.hd c.Sn.sections in
  check tstr "the survivor is beta" "beta" s.Sn.s_name;
  check tbool "its data is intact" true
    (tuples_equal [ enc [ Value.sym "survivor" ] ] s.Sn.s_tuples);
  Sys.remove path

let test_dict_damage_is_fatal_in_both_modes () =
  (* the dictionary is structural — no section decodes without it — so a
     flipped byte there refuses the whole file even in Lenient mode *)
  let path = tmpfile () in
  write_two path;
  corrupt path ~needle:"s:one" ~replacement:"s:oqe";
  let expect = function
    | Error (Sn.Checksum_mismatch { section = "dict"; _ }) -> ()
    | Error c -> Alcotest.fail ("wrong class: " ^ Sn.describe_corruption c)
    | Ok _ -> Alcotest.fail "dictionary damage must be rejected"
  in
  expect (Sn.read path);
  expect (Sn.read ~mode:Sn.Lenient path);
  Sys.remove path

let test_missing_dict_code () =
  (* a hand-built format-2 file whose "bad" section references an even
     code the (checksum-valid) dictionary does not define: strict refuses,
     lenient skips just that section *)
  let path = tmpfile () in
  let bad_body = "8\n" and good_body = "3\n" in
  let manifest_body =
    Printf.sprintf "bad\t1\t1\t%s\ngood\t1\t1\t%s\n" (crc bad_body)
      (crc good_body)
  in
  write_file path
    (String.concat ""
       [ "ALEXSNAP 2\n";
         "meta 0\n";
         Printf.sprintf "dict 0 %s\n" (crc "");
         Printf.sprintf "section bad 1 1 %s\n" (crc bad_body);
         bad_body;
         Printf.sprintf "section good 1 1 %s\n" (crc good_body);
         good_body;
         Printf.sprintf "manifest 2 %s\n" (crc manifest_body);
         manifest_body;
         "end ALEXSNAP\n"
       ]);
  (match Sn.read path with
  | Error (Sn.Malformed { section = "bad"; reason; _ }) ->
    check tbool "names the code" true (find_sub reason "dictionary" <> None)
  | Error c -> Alcotest.fail ("wrong class: " ^ Sn.describe_corruption c)
  | Ok _ -> Alcotest.fail "an undefined code must be rejected in strict mode");
  let c = read_exn ~mode:Sn.Lenient path in
  check tint "one warning" 1 (List.length c.Sn.warnings);
  check tstr "warning names bad" "bad" (List.hd c.Sn.warnings).Sn.w_section;
  (match c.Sn.sections with
  | [ s ] ->
    check tstr "the survivor is good" "good" s.Sn.s_name;
    check tbool "odd codes are self-describing" true
      (tuples_equal [ [| Code.of_int 1 |] ] s.Sn.s_tuples)
  | _ -> Alcotest.fail "exactly the good section must survive");
  Sys.remove path

let test_manifest_crc_tamper () =
  let path = tmpfile () in
  write_two path;
  let tampered =
    List.map
      (fun l ->
        if starts_with "manifest " l then begin
          let n = String.length l in
          let repl = if l.[n - 1] = '0' then '1' else '0' in
          String.sub l 0 (n - 1) ^ String.make 1 repl
        end
        else l)
      (file_lines path)
  in
  write_lines path tampered;
  let expect = function
    | Error (Sn.Checksum_mismatch { section = "manifest"; _ }) -> ()
    | Error c -> Alcotest.fail ("wrong class: " ^ Sn.describe_corruption c)
    | Ok _ -> Alcotest.fail "a tampered manifest must be rejected"
  in
  (* manifest damage is structural: both modes refuse *)
  expect (Sn.read path);
  expect (Sn.read ~mode:Sn.Lenient path);
  Sys.remove path

let test_missing_section_vs_manifest () =
  let path = tmpfile () in
  write_two path;
  (* drop the alpha section (header + 2 tuple lines) from the body; the
     manifest, written last, still records it *)
  let rec drop_alpha = function
    | [] -> []
    | l :: rest when starts_with "section alpha " l -> (
      match rest with _ :: _ :: rest' -> rest' | _ -> [])
    | l :: rest -> l :: drop_alpha rest
  in
  write_lines path (drop_alpha (file_lines path));
  (match Sn.read path with
  | Error (Sn.Manifest_mismatch _) -> ()
  | Error c -> Alcotest.fail ("wrong class: " ^ Sn.describe_corruption c)
  | Ok _ -> Alcotest.fail "a body/manifest disagreement must be rejected");
  Sys.remove path

(* -------------------------------------------------------------------- *)
(* Format 1 (tagged values inline, no dict block) is retired: its header
   is refused as an unsupported version in both modes *)

(* serialize value-level sections in the retired format 1 layout *)
let write_v1 ?(meta = []) ~sections path =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "ALEXSNAP 1\n";
  Buffer.add_string buf (Printf.sprintf "meta %d\n" (List.length meta));
  List.iter
    (fun (k, v) ->
      Buffer.add_string buf
        (Printf.sprintf "%s\t%s\n" (Sn.escape k) (Sn.escape v)))
    meta;
  let manifest = Buffer.create 256 in
  List.iter
    (fun (name, arity, tuples) ->
      let body = Buffer.create 256 in
      List.iter
        (fun tuple ->
          Array.iteri
            (fun i v ->
              if i > 0 then Buffer.add_char body '\t';
              Buffer.add_string body (Sn.encode_value v))
            tuple;
          Buffer.add_char body '\n')
        tuples;
      let c = crc (Buffer.contents body) in
      Buffer.add_string buf
        (Printf.sprintf "section %s %d %d %s\n" (Sn.escape name) arity
           (List.length tuples) c);
      Buffer.add_buffer buf body;
      Buffer.add_string manifest
        (Printf.sprintf "%s\t%d\t%d\t%s\n" (Sn.escape name) arity
           (List.length tuples) c))
    sections;
  Buffer.add_string buf
    (Printf.sprintf "manifest %d %s\n" (List.length sections)
       (crc (Buffer.contents manifest)));
  Buffer.add_buffer buf manifest;
  Buffer.add_string buf "end ALEXSNAP\n";
  write_file path (Buffer.contents buf)

let test_v1_snapshot_is_unsupported () =
  let path = tmpfile () in
  write_v1 ~meta:[ ("kind", "database") ]
    ~sections:[ ("rel:e", 2, [ [| Value.int 1; Value.sym "x" |] ]) ]
    path;
  List.iter
    (fun mode ->
      match Sn.read ~mode path with
      | Error (Sn.Unsupported_version 1) -> ()
      | Error c -> Alcotest.fail ("wrong class: " ^ Sn.describe_corruption c)
      | Ok _ -> Alcotest.fail "a format 1 snapshot must be refused")
    [ Sn.Strict; Sn.Lenient ];
  (match Sn.load_database path with
  | Error (Sn.Unsupported_version 1) -> ()
  | _ -> Alcotest.fail "the database loader must refuse format 1 too");
  Sys.remove path

(* -------------------------------------------------------------------- *)
(* Encoding properties *)

let prop_escape_roundtrip =
  QCheck.Test.make ~name:"escape/unescape round-trips any string" ~count:500
    QCheck.string (fun s ->
      let e = Sn.escape s in
      (not
         (String.exists
            (fun c -> c = '\t' || c = '\n' || c = '\r' || c = ' ')
            e))
      && match Sn.unescape e with Ok s' -> s' = s | Error _ -> false)

let arb_value =
  QCheck.make
    ~print:(fun v -> Sn.encode_value v)
    QCheck.Gen.(
      oneof
        [ map Value.int int;
          map (fun s -> Value.sym s) (string_size (int_bound 12))
        ])

let prop_value_roundtrip =
  QCheck.Test.make ~name:"encode/decode round-trips any value" ~count:500
    arb_value (fun v ->
      match Sn.decode_value (Sn.encode_value v) with
      | Ok v' -> Value.equal v v'
      | Error _ -> false)

(* write coded, read back, decode: the dictionary block must make raw
   codes durable across (simulated) process boundaries *)
let prop_section_roundtrip =
  QCheck.Test.make ~name:"coded sections round-trip any value tuples"
    ~count:100
    QCheck.(
      make
        ~print:(fun rows ->
          String.concat ";"
            (List.map
               (fun (i, s) -> Printf.sprintf "(%d,%s)" i s)
               rows))
        Gen.(
          list_size (int_bound 12)
            (pair int (string_size (int_bound 8)))))
    (fun rows ->
      let tuples =
        List.map (fun (i, s) -> enc [ Value.int i; Value.sym s ]) rows
      in
      let path = tmpfile () in
      match Sn.write ~sections:[ ("r", 2, tuples) ] path with
      | Error _ -> false
      | Ok () -> (
        match Sn.read path with
        | Error _ -> false
        | Ok c ->
          Sys.remove path;
          (match c.Sn.sections with
          | [ s ] -> tuples_equal tuples s.Sn.s_tuples
          | _ -> false)))

let suite =
  [ ( "snapshot",
      [ Alcotest.test_case "round-trip" `Quick test_roundtrip;
        Alcotest.test_case "database round-trip" `Quick test_db_roundtrip;
        Alcotest.test_case "duplicate sections" `Quick
          test_duplicate_section_rejected;
        Alcotest.test_case "no stale temp" `Quick test_overwrite_leaves_no_tmp;
        Alcotest.test_case "bad magic" `Quick test_bad_magic;
        Alcotest.test_case "unsupported version" `Quick
          test_unsupported_version;
        Alcotest.test_case "truncation" `Quick test_truncation_detected;
        Alcotest.test_case "bit flip (strict)" `Quick test_bitflip_strict;
        Alcotest.test_case "bit flip (lenient)" `Quick
          test_bitflip_lenient_skips_section;
        Alcotest.test_case "dictionary damage" `Quick
          test_dict_damage_is_fatal_in_both_modes;
        Alcotest.test_case "missing dictionary code" `Quick
          test_missing_dict_code;
        Alcotest.test_case "manifest tamper" `Quick test_manifest_crc_tamper;
        Alcotest.test_case "manifest mismatch" `Quick
          test_missing_section_vs_manifest;
        Alcotest.test_case "format 1 is unsupported" `Quick
          test_v1_snapshot_is_unsupported
      ] );
    ( "snapshot:properties",
      List.map QCheck_alcotest.to_alcotest
        [ prop_escape_roundtrip; prop_value_roundtrip; prop_section_roundtrip ]
    )
  ]

(* Database images: a Wal log holding one base frame.  Round-trips
   (hostile names and symbols, dictionary-encoded big ints, nullary
   relations, a reader whose codes differ from the writer's), damage
   refused in both modes, atomic installation, and the refusal of the
   retired section format. *)

open Datalog_ast
open Datalog_storage
module Sn = Snapshot

let check = Alcotest.check
let tbool = Alcotest.bool

let tmpfile () = Filename.temp_file "alexsnap" ".snap"
let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* tuples in test expectations are written as values and encoded *)
let enc vs = Array.of_list (List.map Code.of_value vs)

let save_exn ?meta db path =
  match Sn.save_database ?meta db path with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

(* the image as sorted (name, arity, values) rows: comparable across
   processes, whatever the codes *)
let rows db =
  Database.preds db
  |> List.concat_map (fun p ->
         List.map
           (fun t ->
             ( Pred.name p,
               Pred.arity p,
               Array.to_list (Array.map Code.to_value t) ))
           (Database.tuples db p))
  |> List.sort compare

let two_relations () =
  let db = Database.create () in
  let e = Pred.make "e" 2 in
  ignore (Database.add db e (enc [ Value.int 1; Value.sym "one" ]));
  ignore (Database.add db e (enc [ Value.int 2; Value.sym "two" ]));
  ignore (Database.add db (Pred.make "beta" 1) (enc [ Value.sym "survivor" ]));
  db

let expect_refused what path =
  List.iter
    (fun mode ->
      match Sn.load_database ~mode path with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (what ^ " must be refused in every mode"))
    [ Sn.Strict; Sn.Lenient ]

(* -------------------------------------------------------------------- *)
(* Round trips *)

let test_db_roundtrip () =
  let db = Database.create () in
  let e = Pred.make "e" 2 in
  ignore (Database.add db e (enc [ Value.int 1; Value.sym "x y" ]));
  ignore (Database.add db e (enc [ Value.int 2; Value.sym "z" ]));
  (* "42" the symbol survives: the format is typed, unlike Io *)
  ignore (Database.add db (Pred.make "label" 1) (enc [ Value.sym "42" ]));
  let path = tmpfile () in
  let meta = [ ("txn", "3"); ("key with space", "v\talue\\n") ] in
  save_exn ~meta db path;
  (match Sn.load_database_meta path with
  | Error c -> Alcotest.fail (Sn.describe_corruption c)
  | Ok (db2, meta2, warnings) ->
    check tbool "no warnings" true (warnings = []);
    check tbool "meta preserved" true (meta2 = meta);
    check tbool "facts preserved" true (rows db = rows db2);
    check tbool "symbolic 42 stays a symbol" true
      (List.exists
         (fun t -> Code.equal t.(0) (Code.of_value (Value.sym "42")))
         (Database.tuples db2 (Pred.make "label" 1))));
  Sys.remove path

let test_overwrite_leaves_no_tmp () =
  let path = tmpfile () in
  save_exn (two_relations ()) path;
  save_exn (two_relations ()) path;
  check tbool "no stale temp file" false (Sys.file_exists (path ^ ".tmp"));
  Sys.remove path

(* -------------------------------------------------------------------- *)
(* Damage *)

let flip_byte path i =
  let b = Bytes.of_string (read_file path) in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x01));
  write_file path (Bytes.to_string b)

let test_bad_magic () =
  let path = tmpfile () in
  save_exn (two_relations ()) path;
  flip_byte path 0;
  List.iter
    (fun mode ->
      match Sn.load_database ~mode path with
      | Error (Sn.Not_a_snapshot _) -> ()
      | Error c -> Alcotest.fail ("wrong class: " ^ Sn.describe_corruption c)
      | Ok _ -> Alcotest.fail "bad magic must be rejected")
    [ Sn.Strict; Sn.Lenient ];
  Sys.remove path

let test_unsupported_version () =
  let path = tmpfile () in
  save_exn (two_relations ()) path;
  let data = read_file path in
  let n = String.length Wal.header in
  write_file path ("ALEXWAL 9\n" ^ String.sub data n (String.length data - n));
  (match Sn.load_database path with
  | Error (Sn.Unsupported_version 9) -> ()
  | Error c -> Alcotest.fail ("wrong class: " ^ Sn.describe_corruption c)
  | Ok _ -> Alcotest.fail "future versions must be rejected");
  Sys.remove path

let test_truncation_detected () =
  (* a torn write: only a prefix of the image reached the disk.  Every
     cut after the magic line is Truncated in both modes — a base is
     never a salvageable tail *)
  let path = tmpfile () in
  save_exn (two_relations ()) path;
  let data = read_file path in
  let hlen = String.length Wal.header in
  for cut = hlen to String.length data - 1 do
    write_file path (String.sub data 0 cut);
    List.iter
      (fun mode ->
        match Sn.load_database ~mode path with
        | Error (Sn.Truncated _) -> ()
        | Error c ->
          Alcotest.fail
            (Printf.sprintf "cut at %d: wrong class: %s" cut
               (Sn.describe_corruption c))
        | Ok _ -> Alcotest.fail (Printf.sprintf "cut at %d: a torn prefix loaded" cut))
      [ Sn.Strict; Sn.Lenient ]
  done;
  (* a body cut short names the frame it ends inside *)
  write_file path (String.sub data 0 (String.length data - 3));
  (match Sn.load_database path with
  | Error (Sn.Truncated what) ->
    check Alcotest.string "names the torn frame"
      (Printf.sprintf "end of the frame at byte %d" hlen)
      what
  | Error c -> Alcotest.fail ("wrong class: " ^ Sn.describe_corruption c)
  | Ok _ -> Alcotest.fail "a torn base must be refused");
  Sys.remove path

let test_bitflip_refused () =
  (* a flipped byte anywhere in the base fails its CRC: refused in both
     modes, since serving the rest would silently drop acked facts *)
  let path = tmpfile () in
  save_exn (two_relations ()) path;
  let len = String.length (read_file path) in
  flip_byte path (len - 2);
  List.iter
    (fun mode ->
      match Sn.load_database ~mode path with
      | Error (Sn.Checksum_mismatch { section; _ }) ->
        check Alcotest.string "names the damaged frame"
          (Printf.sprintf "frame at byte %d" (String.length Wal.header))
          section
      | Error c -> Alcotest.fail ("wrong class: " ^ Sn.describe_corruption c)
      | Ok _ -> Alcotest.fail "a flipped byte must fail the frame checksum")
    [ Sn.Strict; Sn.Lenient ];
  Sys.remove path

let test_missing_dict_code () =
  (* a hand-built, checksum-valid base whose fact references an even
     code no [d] line defines: refused in both modes *)
  let path = tmpfile () in
  write_file path (Wal.header ^ Wal.frame "base 0 0 2\nf bad\t1\t8\nf good\t1\t3\n");
  expect_refused "an undefined code" path;
  Sys.remove path

let test_transactions_refused () =
  (* a server log (base + transactions) is not a plain image *)
  let path = tmpfile () in
  save_exn (two_relations ()) path;
  let len = String.length (read_file path) in
  (match Wal.open_for_append ~base_end:len ~valid_bytes:len path with
  | Error msg -> Alcotest.fail msg
  | Ok w ->
    (match
       Wal.append w ~txn:1 ~op:`Add
         [ Datalog_parser.Parser.atom_of_string "beta(more)" ]
     with
    | Ok () -> ()
    | Error msg -> Alcotest.fail msg);
    Wal.close w);
  expect_refused "a log with transactions" path;
  Sys.remove path

let test_retired_section_format_refused () =
  (* the section format the server used to write: not a log *)
  let path = tmpfile () in
  write_file path
    "ALEXSNAP 2\nmeta 1\nkind\tdatabase\ndict 0 00000000\nmanifest 0 00000000\n\
     end ALEXSNAP\n";
  List.iter
    (fun mode ->
      match Sn.load_database ~mode path with
      | Error (Sn.Not_a_snapshot _) -> ()
      | Error c -> Alcotest.fail ("wrong class: " ^ Sn.describe_corruption c)
      | Ok _ -> Alcotest.fail "a retired-format file must be refused")
    [ Sn.Strict; Sn.Lenient ];
  Sys.remove path

(* -------------------------------------------------------------------- *)
(* Properties *)

let prop_escape_roundtrip =
  QCheck.Test.make ~name:"escape/unescape round-trips any string" ~count:500
    QCheck.string (fun s ->
      let e = Wal.escape s in
      (not
         (String.exists
            (fun c -> c = '\t' || c = '\n' || c = '\r' || c = ' ')
            e))
      && match Wal.unescape e with Ok s' -> s' = s | Error _ -> false)

let gen_value =
  QCheck.Gen.(
    oneof
      [ map Value.int small_signed_int;
        (* beyond the arithmetic encoding: side-dictionary ints *)
        map (fun k -> Value.int (max_int - k)) (int_bound 1000);
        map Value.int int;
        map (fun s -> Value.sym s) (string_size (int_bound 8))
      ])

let prop_value_roundtrip =
  QCheck.Test.make ~name:"encode/decode round-trips any value" ~count:500
    (QCheck.make ~print:Wal.encode_value gen_value) (fun v ->
      match Wal.decode_value (Wal.encode_value v) with
      | Ok v' -> Value.equal v v'
      | Error _ -> false)

(* relations with hostile names, and a nullary one *)
let relations = [ ("plain", 2); ("needs escape \t\\ \n", 1); ("nullary", 0) ]

(* The log as a reader whose intern state differs from the writer's sees
   it: every even code, in [d] and [f] lines alike, shifted to a number
   this process never assigned.  Only the dictionary can map them back. *)
let foreign_codes path =
  let shift f =
    match int_of_string_opt f with
    | Some c when c land 1 = 0 -> string_of_int (c + (1 lsl 40))
    | _ -> f
  in
  let data = read_file path in
  let body =
    match Wal.scan data with
    | Ok ([ { Wal.pos; len; _ } ], Wal.End) -> String.sub data pos len
    | _ -> Alcotest.fail "an image is one clean frame"
  in
  let lines =
    List.map
      (fun line ->
        match String.split_on_char '\t' line with
        | d :: rest when String.length d > 2 && String.sub d 0 2 = "d " ->
          String.concat "\t" (("d " ^ shift (String.sub d 2 (String.length d - 2))) :: rest)
        | f :: arity :: codes when String.length f > 2 && String.sub f 0 2 = "f " ->
          String.concat "\t" (f :: arity :: List.map shift codes)
        | _ -> line)
      (String.split_on_char '\n' body)
  in
  write_file path (Wal.header ^ Wal.frame (String.concat "\n" lines))

let prop_database_roundtrip =
  QCheck.Test.make ~name:"save/load round-trips any image across processes"
    ~count:100
    (QCheck.make
       QCheck.Gen.(
         list_size (int_bound 15)
           (pair (int_bound 2) (list_repeat 2 gen_value))))
    (fun rows_spec ->
      let db = Database.create () in
      List.iter
        (fun (i, vs) ->
          let name, arity = List.nth relations i in
          ignore
            (Database.add db (Pred.make name arity)
               (enc (List.filteri (fun j _ -> j < arity) vs))))
        rows_spec;
      let path = tmpfile () in
      Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
      match Sn.save_database db path with
      | Error _ -> false
      | Ok () -> (
        foreign_codes path;
        (* the intern state moves on before the load *)
        ignore (Symbol.intern (Printf.sprintf "later %d" (Symbol.interned_count ())));
        match Sn.load_database ~mode:Sn.Strict path with
        | Error _ -> false
        | Ok (db2, warnings) -> warnings = [] && rows db = rows db2))

let suite =
  [ ( "snapshot",
      [ Alcotest.test_case "database round-trip" `Quick test_db_roundtrip;
        Alcotest.test_case "no stale temp" `Quick test_overwrite_leaves_no_tmp;
        Alcotest.test_case "bad magic" `Quick test_bad_magic;
        Alcotest.test_case "unsupported version" `Quick
          test_unsupported_version;
        Alcotest.test_case "truncation" `Quick test_truncation_detected;
        Alcotest.test_case "bit flip (both modes)" `Quick test_bitflip_refused;
        Alcotest.test_case "missing dictionary code" `Quick
          test_missing_dict_code;
        Alcotest.test_case "transactions after the base" `Quick
          test_transactions_refused;
        Alcotest.test_case "retired section format" `Quick
          test_retired_section_format_refused
      ] );
    ( "snapshot:properties",
      List.map QCheck_alcotest.to_alcotest
        [ prop_escape_roundtrip; prop_value_roundtrip; prop_database_roundtrip ]
    )
  ]

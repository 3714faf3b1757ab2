type mode = Wal.mode = Strict | Lenient

type corruption =
  | Not_a_snapshot of string
  | Unsupported_version of int
  | Truncated of string
  | Checksum_mismatch of { section : string; expected : string; actual : string }
  | Malformed of { section : string; reason : string }

type warning = { w_section : string; w_corruption : corruption }

let describe_corruption = function
  | Not_a_snapshot msg -> Printf.sprintf "not a snapshot: %s" msg
  | Unsupported_version v ->
    Printf.sprintf "unsupported format version %d (this build reads %d)" v
      Wal.format_version
  | Truncated what -> Printf.sprintf "truncated snapshot: missing %s" what
  | Checksum_mismatch { section; expected; actual } ->
    Printf.sprintf "checksum mismatch in %s: expected %s, computed %s" section
      expected actual
  | Malformed { section; reason } ->
    Printf.sprintf "malformed %s: %s" section reason

let pp_corruption ppf c = Format.pp_print_string ppf (describe_corruption c)

let describe_warning w =
  Printf.sprintf "skipped %s: %s" w.w_section (describe_corruption w.w_corruption)

let save_database ?(meta = []) db path =
  Result.map ignore (Wal.install path (fst (Wal.base_body meta db)))

let frame_at offset = Printf.sprintf "frame at byte %d" offset

let load_database_meta ?mode path =
  if not (Sys.file_exists path) then
    Error (Not_a_snapshot (path ^ ": No such file or directory"))
  else
    match Wal.load ?mode path with
    | Error (Wal.Not_a_log msg) -> Error (Not_a_snapshot msg)
    | Error (Wal.Unsupported_version v) -> Error (Unsupported_version v)
    | Error (Wal.Damaged { offset; damage }) -> (
      let section = frame_at offset in
      match damage with
      | Wal.Cut_short _ -> Error (Truncated ("end of the " ^ section))
      | Wal.Checksum { expected; actual } ->
        Error (Checksum_mismatch { section; expected; actual })
      | Wal.Unparsable reason -> Error (Malformed { section; reason }))
    | Ok { Wal.base = None; _ } -> Error (Truncated "base frame")
    | Ok { Wal.entries = _ :: _; base_end; _ } ->
      Error
        (Malformed
           { section = frame_at base_end;
             reason = "transactions follow the base; only the server replays them"
           })
    | Ok { Wal.base = Some (meta, db); tail; _ } ->
      let warnings =
        match tail with
        | Wal.Clean -> []
        | Wal.Torn { at; reason } ->
          [ { w_section = frame_at at;
              w_corruption = Malformed { section = "tail"; reason } } ]
      in
      Ok (db, meta, warnings)

let load_database ?mode path =
  Result.map (fun (db, _, warnings) -> (db, warnings)) (load_database_meta ?mode path)

open Datalog_ast

let parse_field s =
  let s = String.trim s in
  match int_of_string_opt s with
  | Some i -> Value.int i
  | None -> Value.sym s

let split_line delimiter line = String.split_on_char delimiter line

let default_delimiter path =
  if Filename.check_suffix path ".tsv" then '\t' else ','

let load_file ?delimiter ~pred path =
  let delimiter =
    match delimiter with Some d -> d | None -> default_delimiter path
  in
  (* routed through the fault plan so load-time torn reads are
     injectable, like every other storage seam *)
  match Faults.read_file path with
  | exception Sys_error msg -> Error msg
  | data ->
    let lines = String.split_on_char '\n' data in
    let lines =
      List.mapi (fun i l -> (i + 1, l)) lines
      |> List.filter (fun (_, l) -> String.trim l <> "")
    in
    let lines =
      match lines with
      | (_, first) :: rest when String.length first > 0 && first.[0] = '#' ->
        rest
      | all -> all
    in
    (match lines with
    | [] -> Ok []
    | (_, first) :: _ ->
      let arity = List.length (split_line delimiter first) in
      let pred_t = Pred.make pred arity in
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | (lineno, line) :: rest ->
          let fields = split_line delimiter line in
          if List.length fields <> arity then
            Error
              (Printf.sprintf "%s:%d: expected %d fields, found %d" path
                 lineno arity (List.length fields))
          else
            let tuple =
              Array.of_list (List.map parse_field fields)
            in
            go (Atom.of_tuple pred_t tuple :: acc) rest
      in
      go [] lines)

let load_directory dir =
  match Sys.readdir dir with
  | exception Sys_error msg -> Error msg
  | entries ->
    let data_files =
      Array.to_list entries
      |> List.filter (fun f ->
             Filename.check_suffix f ".csv" || Filename.check_suffix f ".tsv")
      |> List.sort String.compare
    in
    (* accumulate in reverse and flip once at the end: appending each
       file's atoms would be quadratic across a directory of many files *)
    Result.map List.rev
      (List.fold_left
         (fun acc file ->
           match acc with
           | Error _ as e -> e
           | Ok atoms -> (
             let pred = Filename.remove_extension file in
             match load_file ~pred (Filename.concat dir file) with
             | Ok more -> Ok (List.rev_append more atoms)
             | Error _ as e -> e))
         (Ok []) data_files)

exception Unwritable of string

(* The format has no quoting, and [parse_field] trims and int-parses on
   the way back in — so refuse any symbol that would not survive the
   round trip rather than silently corrupt it. *)
let field_to_string ~delimiter = function
  | Value.Int i -> string_of_int i
  | Value.Sym s ->
    let name = Symbol.name s in
    let bad reason =
      raise (Unwritable (Printf.sprintf "symbol %S %s" name reason))
    in
    if
      String.exists (fun c -> c = delimiter || c = '\n' || c = '\r') name
    then
      bad
        (Printf.sprintf
           "contains the delimiter %C, a newline or a carriage return"
           delimiter);
    if String.trim name <> name then
      bad "has leading or trailing whitespace (fields are trimmed on load)";
    if int_of_string_opt name <> None then
      bad "would read back as an integer";
    name

let save_relation ?(delimiter = ',') db pred path =
  match
    let buf = Buffer.create 1024 in
    List.iter
      (fun tuple ->
        Array.iteri
          (fun i c ->
            if i > 0 then Buffer.add_char buf delimiter;
            Buffer.add_string buf (field_to_string ~delimiter (Code.to_value c)))
          tuple;
        Buffer.add_char buf '\n')
      (Database.tuples db pred);
    Buffer.contents buf
  with
  | exception Unwritable msg -> Error (Printf.sprintf "%s: %s" path msg)
  | data ->
    (* write-temp / fsync / rename / dirsync: a failure (or crash)
       mid-save leaves any previous file at [path] untouched, and the
       parent-directory fsync makes the install durable across power
       loss *)
    Wal.atomic_write_string path data

let rec mkdir_p dir =
  if dir = "" || dir = "." || dir = "/" || Sys.file_exists dir then ()
  else begin
    mkdir_p (Filename.dirname dir);
    Faults.mkdir dir 0o755
  end

let save_database db dir =
  match mkdir_p dir with
  | exception Sys_error msg -> Error msg
  | () ->
    List.fold_left
      (fun acc pred ->
        match acc with
        | Error _ as e -> e
        | Ok () ->
          save_relation db pred
            (Filename.concat dir (Pred.name pred ^ ".csv")))
      (Ok ()) (Database.preds db)

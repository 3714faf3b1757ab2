open Datalog_ast
open Datalog_storage
module Json = Datalog_engine.Json

type budgets = {
  timeout_s : float option;
  max_facts : int option;
  max_iterations : int option;
  max_tuples : int option;
}

let no_budgets =
  { timeout_s = None; max_facts = None; max_iterations = None;
    max_tuples = None }

type request =
  | Query of { goal : Atom.t; engine : bool }
  | Add of Atom.t list
  | Remove of Atom.t list
  | Ping
  | Stats
  | Snapshot_now
  | Shutdown

type envelope = {
  req_id : Json.t;
  budgets : budgets;
  idem_key : string option;
  request : request;
}
type parse_error = { err_id : Json.t; err_message : string }

(* ------------------------------------------------------------------ *)
(* Request parsing *)

let float_member name obj =
  match Json.member name obj with
  | Some (Json.Float f) -> Some f
  | Some (Json.Int i) -> Some (float_of_int i)
  | _ -> None

let int_member name obj =
  match Json.member name obj with Some (Json.Int i) -> Some i | _ -> None

let string_member name obj =
  match Json.member name obj with Some (Json.String s) -> Some s | _ -> None

let budgets_of obj =
  { timeout_s = float_member "timeout_s" obj;
    max_facts = int_member "max_facts" obj;
    max_iterations = int_member "max_iterations" obj;
    max_tuples = int_member "max_tuples" obj
  }

(* [atom_of_string] raises on bad syntax; the server must never die on a
   malformed request line, so squash every parser exception to Error. *)
let atom_of_text text =
  match Datalog_parser.Parser.atom_of_string (String.trim text) with
  | atom -> Ok atom
  | exception _ -> Error (Printf.sprintf "cannot parse atom %S" text)

let facts_of obj =
  match Json.member "facts" obj with
  | Some (Json.List items) ->
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | Json.String text :: rest -> (
        match atom_of_text text with
        | Ok a -> go (a :: acc) rest
        | Error _ as e -> e)
      | _ :: _ -> Error "\"facts\" must be an array of fact strings"
    in
    go [] items
  | Some _ -> Error "\"facts\" must be an array of fact strings"
  | None -> Error "missing \"facts\" field"

let parse line =
  match Json.of_string line with
  | exception Json.Parse_error msg ->
    Error { err_id = Json.Null; err_message = "bad JSON: " ^ msg }
  | (Json.Obj _ as obj) -> (
    let err_id = Option.value ~default:Json.Null (Json.member "id" obj) in
    let fail msg = Error { err_id; err_message = msg } in
    let budgets = budgets_of obj in
    let idem_key = string_member "key" obj in
    let envelope request = Ok { req_id = err_id; budgets; idem_key; request } in
    match string_member "op" obj with
    | None -> fail "missing \"op\" field"
    | Some "query" -> (
      match string_member "goal" obj with
      | None -> fail "query needs a \"goal\" field"
      | Some text -> (
        match atom_of_text text with
        | Error msg -> fail msg
        | Ok goal ->
          let engine =
            match Json.member "engine" obj with
            | Some (Json.Bool b) -> b
            | _ -> false
          in
          envelope (Query { goal; engine })))
    | Some (("add" | "remove") as op) -> (
      match facts_of obj with
      | Error msg -> fail msg
      | Ok facts ->
        envelope (if op = "add" then Add facts else Remove facts))
    | Some "ping" -> envelope Ping
    | Some "stats" -> envelope Stats
    | Some "snapshot" -> envelope Snapshot_now
    | Some "shutdown" -> envelope Shutdown
    | Some op -> fail (Printf.sprintf "unknown op %S" op))
  | _ -> Error { err_id = Json.Null; err_message = "request must be an object" }

(* ------------------------------------------------------------------ *)
(* Replies *)

let answers_reply ~id ~goal ~answers ~cached ~complete ~reason ~txn ~wall_s =
  let pred = Atom.pred goal in
  let buf = Buffer.create 64 in
  let rendered =
    List.map
      (fun t ->
        Buffer.clear buf;
        Tuple.add_atom buf pred t;
        Json.String (Buffer.contents buf))
      answers
  in
  Json.Obj
    ([ ("id", id);
       ("status", Json.String (if complete then "ok" else "partial")) ]
    @ (match reason with
      | Some r when not complete -> [ ("reason", Json.String r) ]
      | _ -> [])
    @ [ ("answers", Json.List rendered);
        ("count", Json.Int (List.length answers));
        ("cached", Json.Bool cached);
        ("txn", Json.Int txn);
        ("wall_s", Json.Float wall_s)
      ])

let ack ~id ~op ~count ~txn ?key ?(idempotent = false) () =
  Json.Obj
    ([ ("id", id);
       ("status", Json.String "ok");
       ("op", Json.String op);
       ("count", Json.Int count);
       ("txn", Json.Int txn)
     ]
    @ (match key with Some k -> [ ("key", Json.String k) ] | None -> [])
    @ if idempotent then [ ("idempotent", Json.Bool true) ] else [])

let error ~id message =
  Json.Obj
    [ ("id", id);
      ("status", Json.String "error");
      ("message", Json.String message)
    ]

let overloaded ~id ~scope ~retry_after_s =
  Json.Obj
    [ ("id", id);
      ("status", Json.String "overloaded");
      ("scope", Json.String scope);
      ("retry_after_s", Json.Float retry_after_s)
    ]

let pong ~id =
  Json.Obj
    [ ("id", id); ("status", Json.String "ok"); ("pong", Json.Bool true) ]

let bye ~id =
  Json.Obj
    [ ("id", id); ("status", Json.String "ok"); ("bye", Json.Bool true) ]

let stats_reply ~id fields =
  Json.Obj (("id", id) :: ("status", Json.String "ok") :: fields)

let render reply = Json.to_line reply ^ "\n"

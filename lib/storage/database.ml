open Datalog_ast

type t = Relation.t Pred.Tbl.t

let create () : t = Pred.Tbl.create 32

let rel db pred =
  match Pred.Tbl.find_opt db pred with
  | Some r -> r
  | None ->
    let r = Relation.create ~name:(Pred.name pred) (Pred.arity pred) in
    Pred.Tbl.add db pred r;
    r

let find db pred = Pred.Tbl.find_opt db pred

let add db pred tuple = Relation.insert (rel db pred) tuple
let add_atom db atom = add db (Atom.pred atom) (Tuple.of_atom atom)

let remove db pred tuple =
  match find db pred with
  | None -> false
  | Some r -> Relation.remove r tuple

let remove_atom db atom = remove db (Atom.pred atom) (Tuple.of_atom atom)

let mem db pred tuple =
  match find db pred with
  | None -> false
  | Some r -> Relation.mem r tuple

let mem_atom db atom = mem db (Atom.pred atom) (Tuple.of_atom atom)

let of_facts facts =
  let db = create () in
  List.iter (fun a -> ignore (add_atom db a)) facts;
  db

let preds db =
  Pred.Tbl.fold (fun p _ acc -> p :: acc) db []
  |> List.sort Pred.compare

let cardinal db pred =
  match find db pred with None -> 0 | Some r -> Relation.cardinal r

let total_facts db =
  Pred.Tbl.fold (fun _ r acc -> acc + Relation.cardinal r) db 0

(* [Hashtbl.copy] duplicates the bucket structure but not the values: the
   overlay starts with exactly the base's predicate entries, each bound to
   the base's own relation. *)
let overlay base : t = Pred.Tbl.copy base

let copy db =
  let fresh = create () in
  Pred.Tbl.iter (fun p r -> Pred.Tbl.add fresh p (Relation.copy r)) db;
  fresh

let assign db ~from =
  Pred.Tbl.reset db;
  Pred.Tbl.iter (fun p r -> Pred.Tbl.add db p (Relation.copy r)) from

let union_into ~src ~dst =
  let added = ref 0 in
  Pred.Tbl.iter
    (fun p r -> Relation.iter (fun t -> if add dst p t then incr added) r)
    src;
  !added

let tuples db pred =
  match find db pred with None -> [] | Some r -> Relation.to_list r

let iter f db =
  List.iter (fun p -> f p (rel db p)) (preds db)

let pp ppf db =
  iter
    (fun p r ->
      Relation.iter
        (fun t ->
          Format.fprintf ppf "%a.@." Atom.pp (Tuple.to_atom p t))
        r)
    db

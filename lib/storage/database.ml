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

let of_groups groups =
  let db = create () in
  List.iter
    (fun (pred, atoms) ->
      let r =
        Relation.create ~name:(Pred.name pred)
          ~capacity:(List.length atoms) (Pred.arity pred)
      in
      Pred.Tbl.add db pred r;
      List.iter (fun a -> ignore (Relation.insert r (Tuple.of_atom a))) atoms)
    groups;
  db

let of_facts facts = of_groups (Program.fact_groups (Program.make ~facts []))

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

type marks = int Pred.Tbl.t

let marks db =
  let m = Pred.Tbl.create (Pred.Tbl.length db) in
  Pred.Tbl.iter (fun p r -> Pred.Tbl.add m p (Relation.mark r)) db;
  m

let since db m =
  let delta = create () in
  Pred.Tbl.iter
    (fun p r ->
      let mark = Option.value (Pred.Tbl.find_opt m p) ~default:0 in
      if Relation.mark r > mark then begin
        let slice = Relation.since r mark in
        if not (Relation.is_empty slice) then Pred.Tbl.add delta p slice
      end)
    db;
  delta

let union_into ~src ~dst =
  let added = ref 0 in
  Pred.Tbl.iter
    (fun p r -> Relation.iter (fun t -> if add dst p t then incr added) r)
    src;
  !added

let adopt ~src ~dst =
  Pred.Tbl.iter
    (fun p r ->
      match find dst p with
      | None -> Pred.Tbl.add dst p r
      | Some d ->
        let missing t acc = acc || not (Relation.mem d t) in
        if Relation.fold missing r false then begin
          let d' = Relation.copy d in
          ignore (Relation.union_into ~src:r ~dst:d');
          Pred.Tbl.replace dst p d'
        end)
    src

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

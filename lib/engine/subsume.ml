open Datalog_ast
open Datalog_storage

type entry = {
  generals : (Pred.t * int array) list;
  companion : Pred.t;
}

type t = entry Pred.Tbl.t option

let none : t = None
let is_active = Option.is_some

let make specs =
  match specs with
  | [] -> None
  | _ ->
    let tbl = Pred.Tbl.create (List.length specs) in
    List.iter
      (fun (specific, generals, companion) ->
        Pred.Tbl.replace tbl specific { generals; companion })
      specs;
    Some tbl

let companions t =
  match t with
  | None -> Pred.Set.empty
  | Some tbl ->
    Pred.Tbl.fold
      (fun _ e acc -> Pred.Set.add e.companion acc)
      tbl Pred.Set.empty

let drop t db pred (tuple : Tuple.t) =
  match t with
  | None -> None
  | Some tbl -> (
    match Pred.Tbl.find_opt tbl pred with
    | None -> None
    | Some e ->
      let subsumed_by (general, proj) =
        let projected = Tuple.project proj tuple in
        Database.mem db general projected
      in
      if List.exists subsumed_by e.generals then Some e.companion else None)

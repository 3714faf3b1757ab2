open Datalog_ast

type strategy = Ltr | Cost

let strategy_name = function Ltr -> "ltr" | Cost -> "cost"

let strategy_of_string = function
  | "ltr" | "left_to_right" -> Some Ltr
  | "cost" | "cost_aware" -> Some Cost
  | _ -> None

module SSet = Set.Make (String)

let ready bound = function
  | Literal.Pos _ -> true
  | Literal.Neg a -> List.for_all (fun v -> SSet.mem v bound) (Atom.var_set a)
  | Literal.Cmp (op, t1, t2) -> (
    let b = function Term.Const _ -> true | Term.Var v -> SSet.mem v bound in
    match op with
    | Literal.Eq -> b t1 || b t2
    | _ -> b t1 && b t2)

let bind bound = function
  | Literal.Pos a -> SSet.union bound (SSet.of_list (Atom.var_set a))
  | Literal.Neg _ -> bound
  | Literal.Cmp (Literal.Eq, t1, t2) ->
    let add acc = function Term.Var v -> SSet.add v acc | Term.Const _ -> acc in
    add (add bound t1) t2
  | Literal.Cmp (_, _, _) -> bound

(* Cost's rank of a positive literal: bound variables shared, constant
   arguments, then the smaller relation; the earlier position wins ties. *)
let score card bound a =
  let shared =
    List.length (List.filter (fun v -> SSet.mem v bound) (Atom.var_set a))
  in
  let consts =
    Array.fold_left
      (fun acc t -> if Term.is_ground t then acc + 1 else acc)
      0 (Atom.args a)
  in
  (shared, consts, -card (Atom.pred a))

(* Remove the first element of [l] satisfying [p]. *)
let take p l =
  let rec go seen = function
    | [] -> None
    | x :: rest ->
      if p x then Some (x, List.rev_append seen rest) else go (x :: seen) rest
  in
  go [] l

let pick card strategy bound remaining =
  match strategy with
  | Ltr -> take (fun (_, lit) -> Literal.is_positive lit) remaining
  | Cost ->
    let best =
      List.fold_left
        (fun best (i, lit) ->
          match lit with
          | Literal.Pos a -> (
            let s = score card bound a in
            match best with
            | Some (s', _) when s' >= s -> best
            | _ -> Some (s, i))
          | Literal.Neg _ | Literal.Cmp _ -> best)
        None remaining
    in
    Option.bind best (fun (_, i) -> take (fun (j, _) -> j = i) remaining)

let order ?(card = fun _ -> 0) ?first ~bound strategy body =
  let indexed = List.mapi (fun i lit -> (i, lit)) body in
  let bound0 =
    List.fold_left
      (fun acc lit ->
        List.fold_left
          (fun acc v -> if bound v then SSet.add v acc else acc)
          acc (Literal.vars lit))
      SSet.empty body
  in
  let rec go bound acc remaining =
    match remaining with
    | [] -> List.rev acc
    | _ -> (
      (* 1. flush any ready filter (negation/comparison), original order;
         2. else pick a positive literal per strategy *)
      let filter (_, lit) = (not (Literal.is_positive lit)) && ready bound lit in
      match take filter remaining with
      | Some (((_, lit) as x), rest) -> go (bind bound lit) (x :: acc) rest
      | None -> (
        match pick card strategy bound remaining with
        | Some (((_, lit) as x), rest) -> go (bind bound lit) (x :: acc) rest
        | None ->
          (* only unready filters remain; emit them as they stand and let
             the safety check reject the rule *)
          List.rev_append acc remaining))
  in
  match Option.bind first (fun d -> take (fun (i, _) -> i = d) indexed) with
  | Some (((_, lit) as x), rest) -> go (bind bound0 lit) [ x ] rest
  | None -> go bound0 [] indexed

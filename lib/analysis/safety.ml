open Datalog_ast

module SSet = Set.Make (String)

(* Propagate limitedness: positive atoms limit their variables; [X = t]
   limits X when t is a constant or a limited variable (and symmetrically). *)
let limited_set rule =
  let from_positive =
    List.fold_left
      (fun acc lit ->
        match lit with
        | Literal.Pos a -> SSet.union acc (SSet.of_list (Atom.var_set a))
        | Literal.Neg _ | Literal.Cmp _ -> acc)
      SSet.empty (Rule.body rule)
  in
  let step limited =
    List.fold_left
      (fun acc lit ->
        match lit with
        | Literal.Cmp (Literal.Eq, t1, t2) -> (
          let limited_term = function
            | Term.Const _ -> true
            | Term.Var v -> SSet.mem v acc
          in
          match t1, t2 with
          | Term.Var v, t when limited_term t -> SSet.add v acc
          | t, Term.Var v when limited_term t -> SSet.add v acc
          | _ -> acc)
        | Literal.Pos _ | Literal.Neg _ | Literal.Cmp _ -> acc)
      limited (Rule.body rule)
  in
  let rec fix limited =
    let next = step limited in
    if SSet.equal next limited then limited else fix next
  in
  fix from_positive

let limited_vars rule = SSet.elements (limited_set rule)

let range_restricted rule =
  let limited = limited_set rule in
  let check_vars context vars =
    match List.find_opt (fun v -> not (SSet.mem v limited)) vars with
    | Some v ->
      Error
        (Format.asprintf "variable %s in %s of rule [%a] is not limited" v
           context Rule.pp rule)
    | None -> Ok ()
  in
  let ( let* ) r f = Result.bind r f in
  let* () = check_vars "the head" (Rule.head_vars rule) in
  let rec body_ok = function
    | [] -> Ok ()
    | Literal.Neg a :: rest ->
      let* () = check_vars "a negative literal" (Atom.var_set a) in
      body_ok rest
    | Literal.Cmp (_, t1, t2) :: rest ->
      let* () = check_vars "a comparison" (Term.vars t1 @ Term.vars t2) in
      body_ok rest
    | Literal.Pos _ :: rest -> body_ok rest
  in
  body_ok (Rule.body rule)

(* A literal is evaluable once [bound] covers what it needs; evaluating it
   extends [bound]. *)
let evaluable bound = function
  | Literal.Pos _ -> true
  | Literal.Neg a -> List.for_all (fun v -> SSet.mem v bound) (Atom.var_set a)
  | Literal.Cmp (op, t1, t2) -> (
    let bound_term = function
      | Term.Const _ -> true
      | Term.Var v -> SSet.mem v bound
    in
    match op with
    | Literal.Eq -> bound_term t1 || bound_term t2
    | Literal.Neq | Literal.Lt | Literal.Leq | Literal.Gt | Literal.Geq ->
      bound_term t1 && bound_term t2)

let binds bound = function
  | Literal.Pos a -> SSet.union bound (SSet.of_list (Atom.var_set a))
  | Literal.Neg _ -> bound
  | Literal.Cmp (Literal.Eq, t1, t2) ->
    let add acc = function Term.Var v -> SSet.add v acc | Term.Const _ -> acc in
    add (add bound t1) t2
  | Literal.Cmp (_, _, _) -> bound

let cdi rule =
  let rec go bound = function
    | [] ->
      if List.for_all (fun v -> SSet.mem v bound) (Rule.head_vars rule) then
        Ok ()
      else Error (Format.asprintf "head of [%a] not fully bound" Rule.pp rule)
    | lit :: rest ->
      if evaluable bound lit then go (binds bound lit) rest
      else
        Error
          (Format.asprintf "literal %a in [%a] is not bound by the literals before it"
             Literal.pp lit Rule.pp rule)
  in
  go SSet.empty (Rule.body rule)

let reorder_for_cdi rule =
  (* Greedy: at each step take the first evaluable literal, preferring the
     earliest positive atom (stable among positives). *)
  let rec go bound acc remaining =
    match remaining with
    | [] -> Some (Rule.make (Rule.head rule) (List.rev acc))
    | _ -> (
      let rec pick seen = function
        | [] -> None
        | lit :: rest ->
          if evaluable bound lit then Some (lit, List.rev_append seen rest)
          else pick (lit :: seen) rest
      in
      match pick [] remaining with
      | None -> None
      | Some (lit, rest) -> go (binds bound lit) (lit :: acc) rest)
  in
  match go SSet.empty [] (Rule.body rule) with
  | Some reordered when Result.is_ok (cdi reordered) -> Some reordered
  | Some _ | None -> None

let cdi_order rule =
  match cdi rule with
  | Ok () -> rule
  | Error _ -> Option.value (reorder_for_cdi rule) ~default:rule

let check_program program =
  let errors =
    List.filter_map
      (fun r ->
        match range_restricted r with Ok () -> None | Error e -> Some e)
      (Program.rules program)
  in
  if errors = [] then Ok () else Error errors

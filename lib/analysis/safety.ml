open Datalog_ast

module SSet = Sips.SSet

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

let cdi rule =
  let rec go bound = function
    | [] ->
      if List.for_all (fun v -> SSet.mem v bound) (Rule.head_vars rule) then
        Ok ()
      else Error (Format.asprintf "head of [%a] not fully bound" Rule.pp rule)
    | lit :: rest ->
      if Sips.ready bound lit then go (Sips.bind bound lit) rest
      else
        Error
          (Format.asprintf "literal %a in [%a] is not bound by the literals before it"
             Literal.pp lit Rule.pp rule)
  in
  go SSet.empty (Rule.body rule)

let cdi_order rule =
  match cdi rule with
  | Ok () -> rule
  | Error _ ->
    let body = Sips.order ~bound:(fun _ -> false) Sips.Ltr (Rule.body rule) in
    let reordered = Rule.make (Rule.head rule) (List.map snd body) in
    if Result.is_ok (cdi reordered) then reordered else rule

let check_program program =
  let errors =
    List.filter_map
      (fun r ->
        match range_restricted r with Ok () -> None | Error e -> Some e)
      (Program.rules program)
  in
  if errors = [] then Ok () else Error errors

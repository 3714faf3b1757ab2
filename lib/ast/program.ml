type t = {
  rules : Rule.t list;
  facts : Atom.t list;
  (* caches, derived from [rules]/[facts] at construction *)
  groups : (Pred.t * Atom.t list) list;
  idb : Pred.Set.t;
  preds : Pred.Set.t;
  by_head : Rule.t list Pred.Map.t;
  facts_by_pred : Atom.t list Pred.Map.t;
}

let index_rules rules =
  List.fold_right
    (fun r m ->
      let p = Atom.pred (Rule.head r) in
      let existing = Option.value ~default:[] (Pred.Map.find_opt p m) in
      Pred.Map.add p (r :: existing) m)
    rules Pred.Map.empty

(* One pass: every fact checked ground and consed onto its predicate's
   cell; the cells are kept in the order of their first facts. *)
let group_facts facts =
  let cells = Pred.Tbl.create 16 in
  let order = ref [] in
  List.iter
    (fun a ->
      if not (Atom.is_ground a) then
        invalid_arg
          (Format.asprintf "Program.make: non-ground fact %a" Atom.pp a);
      let p = Atom.pred a in
      match Pred.Tbl.find_opt cells p with
      | Some cell -> cell := a :: !cell
      | None ->
        let cell = ref [ a ] in
        Pred.Tbl.add cells p cell;
        order := (p, cell) :: !order)
    facts;
  List.rev_map (fun (p, cell) -> (p, List.rev !cell)) !order

let make ?(facts = []) rules =
  let groups = group_facts facts in
  let idb =
    List.fold_left
      (fun acc r -> Pred.Set.add (Atom.pred (Rule.head r)) acc)
      Pred.Set.empty rules
  in
  let preds =
    let from_rules =
      List.fold_left
        (fun acc r -> Pred.Set.union acc (Rule.body_preds r))
        idb rules
    in
    List.fold_left (fun acc (p, _) -> Pred.Set.add p acc) from_rules groups
  in
  { rules;
    facts;
    groups;
    idb;
    preds;
    by_head = index_rules rules;
    facts_by_pred =
      List.fold_left
        (fun m (p, atoms) -> Pred.Map.add p atoms m)
        Pred.Map.empty groups
  }

let empty = make []

let rules p = p.rules
let facts p = p.facts
let fact_groups p = p.groups

let add_rule p r = make ~facts:p.facts (p.rules @ [ r ])
let add_fact p a = make ~facts:(p.facts @ [ a ]) p.rules

let union p q = make ~facts:(p.facts @ q.facts) (p.rules @ q.rules)

let preds p = p.preds
let idb p = p.idb
let edb p = Pred.Set.diff p.preds p.idb
let is_idb p pred = Pred.Set.mem pred p.idb

let rules_for p pred =
  Option.value ~default:[] (Pred.Map.find_opt pred p.by_head)

let facts_for p pred =
  Option.value ~default:[] (Pred.Map.find_opt pred p.facts_by_pred)

let num_rules p = List.length p.rules
let num_facts p = List.length p.facts

let pp_rules ppf p =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_newline ppf ())
    Rule.pp ppf p.rules

let pp ppf p =
  pp_rules ppf p;
  if p.rules <> [] && p.facts <> [] then Format.pp_print_newline ppf ();
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_newline ppf ())
    (fun ppf a -> Format.fprintf ppf "%a." Atom.pp a)
    ppf p.facts

open Datalog_ast
open Datalog_analysis

type adorned_rule = {
  index : int;
  source : Rule.t;
  head : Atom.t;
  head_binding : Binding.t;
  source_pred : Pred.t;
  body : Literal.t list;
}

type t = {
  rules : adorned_rule list;
  query : Atom.t;
  query_pred : Pred.t;
  query_binding : Binding.t;
  registry : Registry.t;
  source_program : Program.t;
}

exception Unbound_negation of Atom.t

module SSet = Sips.SSet

let adorned_pred pred binding =
  Pred.make
    (Printf.sprintf "%s__%s" (Pred.name pred) (Binding.to_string binding))
    (Pred.arity pred)

(* Adorn one source rule for a head binding; returns the adorned rule
   (sans index) plus the (pred, binding) calls it makes on IDB atoms. *)
let adorn_rule program strategy card source head_binding registry =
  let head = Rule.head source in
  let bound0 =
    List.fold_left
      (fun acc i ->
        match (Atom.args head).(i) with
        | Term.Var v -> SSet.add v acc
        | Term.Const _ -> acc)
      SSet.empty
      (Binding.bound_positions head_binding)
  in
  let ordered =
    Sips.order ~card ~bound:(fun v -> SSet.mem v bound0) strategy
      (Rule.body source)
  in
  let calls = ref [] in
  let adorn_atom bound a =
    let binding = Binding.of_atom ~bound:(fun v -> SSet.mem v bound) a in
    let ap = adorned_pred (Atom.pred a) binding in
    Registry.register registry ap (Registry.Adorned (Atom.pred a, binding));
    calls := (Atom.pred a, binding) :: !calls;
    (Atom.make ap (Atom.args a), binding)
  in
  let body =
    List.fold_left
      (fun (bound, acc) lit ->
        match lit with
        | Literal.Pos a when Program.is_idb program (Atom.pred a) ->
          let a', _ = adorn_atom bound a in
          (Sips.bind bound lit, Literal.Pos a' :: acc)
        | Literal.Neg a when Program.is_idb program (Atom.pred a) ->
          let a', binding = adorn_atom bound a in
          if Binding.bound_count binding <> Atom.arity a then
            raise (Unbound_negation a);
          (Sips.bind bound lit, Literal.Neg a' :: acc)
        | Literal.Pos _ | Literal.Neg _ | Literal.Cmp _ ->
          (Sips.bind bound lit, lit :: acc))
      (bound0, []) (List.map snd ordered)
    |> snd
    |> List.rev
  in
  let hp = adorned_pred (Atom.pred head) head_binding in
  Registry.register registry hp
    (Registry.Adorned (Atom.pred head, head_binding));
  ( { index = -1;
      source;
      head = Atom.make hp (Atom.args head);
      head_binding;
      source_pred = Atom.pred head;
      body
    },
    List.rev !calls )

(* The cost-aware SIP needs cardinality estimates before any evaluation
   has happened: count the program's distinct facts, as a relation would. *)
let fact_card program =
  let counts =
    List.fold_left
      (fun m (p, atoms) ->
        Pred.Map.add p (List.length (List.sort_uniq Atom.compare atoms)) m)
      Pred.Map.empty (Program.fact_groups program)
  in
  fun p -> Option.value ~default:0 (Pred.Map.find_opt p counts)

let adorn ?(strategy = Sips.Ltr) ?card program query =
  let card =
    match card with Some f -> f | None -> fact_card program
  in
  let registry = Registry.create () in
  let query_binding =
    Binding.of_atom ~bound:(fun _ -> false) query
  in
  let qpred = Atom.pred query in
  let query_pred = adorned_pred qpred query_binding in
  Registry.register registry query_pred
    (Registry.Adorned (qpred, query_binding));
  let seen = Hashtbl.create 16 in
  let out = ref [] in
  let counter = ref 0 in
  let rec process queue =
    match queue with
    | [] -> ()
    | (pred, binding) :: rest ->
      let key = (Pred.name pred, Pred.arity pred, Binding.to_string binding) in
      if Hashtbl.mem seen key then process rest
      else begin
        Hashtbl.add seen key ();
        let new_calls = ref [] in
        List.iter
          (fun source ->
            let rule, calls =
              adorn_rule program strategy card source binding registry
            in
            let rule = { rule with index = !counter } in
            incr counter;
            out := rule :: !out;
            new_calls := !new_calls @ calls)
          (Program.rules_for program pred);
        process (rest @ !new_calls)
      end
  in
  process [ (qpred, query_binding) ];
  { rules = List.rev !out;
    query;
    query_pred;
    query_binding;
    registry;
    source_program = program
  }

let rules_as_program t =
  Program.make
    (List.map (fun r -> Rule.make r.head r.body) t.rules)

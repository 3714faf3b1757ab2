open Datalog_ast

let split_idb_facts program =
  let idb = Program.idb program in
  let offending =
    List.filter (fun a -> Pred.Set.mem (Atom.pred a) idb) (Program.facts program)
  in
  if offending = [] then program
  else begin
    let moved = Hashtbl.create 8 in
    let base_pred p =
      match Hashtbl.find_opt moved (Pred.name p, Pred.arity p) with
      | Some b -> b
      | None ->
        let b = Pred.make (Pred.name p ^ "_base") (Pred.arity p) in
        Hashtbl.add moved (Pred.name p, Pred.arity p) b;
        b
    in
    let facts =
      List.map
        (fun a ->
          if Pred.Set.mem (Atom.pred a) idb then
            Atom.make (base_pred (Atom.pred a)) (Atom.args a)
          else a)
        (Program.facts program)
    in
    let bridges =
      Hashtbl.fold
        (fun (name, arity) base acc ->
          let vars =
            Array.init arity (fun i -> Term.var (Printf.sprintf "X%d" i))
          in
          Rule.make
            (Atom.make (Pred.make name arity) vars)
            [ Literal.pos (Atom.make base vars) ]
          :: acc)
        moved []
      |> List.sort Rule.compare
    in
    Program.make ~facts (Program.rules program @ bridges)
  end

let reorder_bodies program =
  Program.make ~facts:(Program.facts program)
    (List.map Datalog_analysis.Safety.cdi_order (Program.rules program))

let prune_unreachable program query =
  let graph = Datalog_analysis.Depgraph.make program in
  let qpred = Atom.pred query in
  let keep pred = Datalog_analysis.Depgraph.depends_on graph qpred pred in
  Program.make
    ~facts:(List.filter (fun a -> keep (Atom.pred a)) (Program.facts program))
    (List.filter (fun r -> keep (Atom.pred (Rule.head r))) (Program.rules program))

let dedup_rules program =
  let seen_rules = Hashtbl.create 64 in
  let rules =
    List.filter
      (fun r ->
        let key = Format.asprintf "%a" Rule.pp r in
        if Hashtbl.mem seen_rules key then false
        else begin
          Hashtbl.add seen_rules key ();
          true
        end)
      (Program.rules program)
  in
  let seen_facts = Atom.Tbl.create 64 in
  let facts =
    List.filter
      (fun a ->
        if Atom.Tbl.mem seen_facts a then false
        else begin
          Atom.Tbl.add seen_facts a ();
          true
        end)
      (Program.facts program)
  in
  Program.make ~facts rules

let add_domain_guards ?(guard_all = true) program =
  let dom = Pred.fresh "dom" 1 in
  let dom_lit v = Literal.pos (Atom.make dom [| Term.var v |]) in
  (* domain axioms: dom(Xi) :- p(X1, ..., Xn) for every predicate and
     position *)
  let domain_rules =
    Pred.Set.fold
      (fun pred acc ->
        if Pred.equal pred dom then acc
        else
          let n = Pred.arity pred in
          List.init n (fun i ->
              let args =
                Array.init n (fun j -> Term.var (Printf.sprintf "X%d" j))
              in
              Rule.make
                (Atom.make dom [| Term.var (Printf.sprintf "X%d" i) |])
                [ Literal.pos (Atom.make pred args) ])
          @ acc)
      (Program.preds program) []
  in
  let limited rule =
    Datalog_analysis.Safety.limited_vars rule
  in
  let guard rule =
    let vars = Rule.vars rule in
    let needs_guard =
      if guard_all then vars
      else
        let ok = limited rule in
        List.filter (fun v -> not (List.mem v ok)) vars
    in
    Rule.make (Rule.head rule)
      (List.map dom_lit needs_guard @ Rule.body rule)
  in
  Program.make
    ~facts:(Program.facts program)
    (List.map guard (Program.rules program) @ domain_rules)

let unfold ?(protect = []) program =
  let counter = ref 0 in
  let inline_one program =
    let graph = Datalog_analysis.Depgraph.make program in
    let occurs_negated p =
      List.exists
        (fun r ->
          List.exists (fun a -> Pred.equal (Atom.pred a) p) (Rule.negative_body r))
        (Program.rules program)
    in
    let self_recursive p =
      List.exists
        (fun (q, _) -> Pred.equal q p)
        (Datalog_analysis.Depgraph.successors graph p)
      || List.length (Datalog_analysis.Depgraph.scc_of graph p) > 1
    in
    let candidate =
      Pred.Set.elements (Program.idb program)
      |> List.find_opt (fun p ->
             (not (List.exists (Pred.equal p) protect))
             && List.length (Program.rules_for program p) = 1
             && (not (self_recursive p))
             && (not (occurs_negated p))
             && Program.facts_for program p = []
             (* only worthwhile if someone actually references it *)
             && List.exists
                  (fun r ->
                    List.exists
                      (fun a -> Pred.equal (Atom.pred a) p)
                      (Rule.positive_body r))
                  (Program.rules program))
    in
    match candidate with
    | None -> None
    | Some p ->
      let definition =
        match Program.rules_for program p with
        | [ d ] -> d
        | _ -> assert false
      in
      (* inline the FIRST positive occurrence of [p]; the caller's
         fixpoint loop catches the rest.  The mgu may bind host variables,
         so it is applied to the whole host rule, not just the splice. *)
      let inline_in rule =
        if Pred.equal (Atom.pred (Rule.head rule)) p then None
        else
          let rec split seen = function
            | [] -> None
            | (Literal.Pos a as lit) :: rest when Pred.equal (Atom.pred a) p
              ->
              Some (List.rev seen, lit, a, rest)
            | lit :: rest -> split (lit :: seen) rest
          in
          match split [] (Rule.body rule) with
          | None -> None
          | Some (prefix, _, a, suffix) ->
            incr counter;
            let d =
              Rule.rename ~suffix:(Printf.sprintf "#u%d" !counter) definition
            in
            (match Unify.unify a (Rule.head d) with
            | Some subst ->
              let spliced =
                Rule.make (Rule.head rule)
                  (prefix @ Rule.body d @ suffix)
              in
              Some (Rule.apply subst spliced)
            | None ->
              (* clashing constants: the occurrence can never fire *)
              Some
                (Rule.make (Rule.head rule)
                   (prefix
                   @ (Literal.cmp Literal.Neq (Term.int 0) (Term.int 0)
                     :: suffix))))
      in
      let rules =
        List.filter_map
          (fun r ->
            if Pred.equal (Atom.pred (Rule.head r)) p then None
            else match inline_in r with Some r' -> Some r' | None -> Some r)
          (Program.rules program)
      in
      (* a body with several occurrences of [p] only had its first inlined
         this pass: keep the definition until no reference remains *)
      let still_referenced =
        List.exists
          (fun r ->
            List.exists
              (fun a -> Pred.equal (Atom.pred a) p)
              (Rule.positive_body r))
          rules
      in
      let rules = if still_referenced then rules @ [ definition ] else rules in
      Some (Program.make ~facts:(Program.facts program) rules)
  in
  let rec fixpoint program passes =
    if passes <= 0 then program
    else
      match inline_one program with
      | None -> program
      | Some program' -> fixpoint program' (passes - 1)
  in
  fixpoint program (Program.num_rules program + 8)

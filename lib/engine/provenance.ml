open Datalog_ast
open Datalog_storage

type proof =
  | Fact of Atom.t
  | Derived of {
      conclusion : Atom.t;
      rule : Rule.t;
      subst : Subst.t;
      premises : premise list;
    }

and premise =
  | Proved of proof
  | Absent of Atom.t
  | Holds of Literal.t

let conclusion = function
  | Fact a -> a
  | Derived { conclusion; _ } -> conclusion

let rec depth = function
  | Fact _ -> 1
  | Derived { premises; _ } ->
    1
    + List.fold_left
        (fun acc p ->
          match p with
          | Proved sub -> max acc (depth sub)
          | Absent _ | Holds _ -> acc)
        0 premises

let rec size = function
  | Fact _ -> 1
  | Derived { premises; _ } ->
    1
    + List.fold_left
        (fun acc p ->
          match p with
          | Proved sub -> acc + size sub
          | Absent _ | Holds _ -> acc)
        0 premises

(* The model, computed once by the engine, with every derived fact
   numbered in the order the engine inserted it.  The program's own facts
   are in the database before evaluation starts and carry no number. *)
type model = {
  db : Database.t;
  order : int Tuple.Tbl.t Pred.Tbl.t;
}

let saturate program =
  let order = Pred.Tbl.create 16 in
  let next = ref 0 in
  let on_new pred tuple =
    let numbers =
      match Pred.Tbl.find_opt order pred with
      | Some numbers -> numbers
      | None ->
        let numbers = Tuple.Tbl.create 64 in
        Pred.Tbl.add order pred numbers;
        numbers
    in
    Tuple.Tbl.add numbers tuple !next;
    incr next
  in
  Result.map
    (fun outcome -> { db = outcome.Stratified.db; order })
    (Stratified.run ~on_new
       (Program.make ~facts:(Program.facts program)
          (List.map Datalog_analysis.Safety.cdi_order (Program.rules program))))

(* The insertion number of a fact of the model; [-1] (before every derived
   fact) for a fact of the program. *)
let number model atom =
  match Pred.Tbl.find_opt model.order (Atom.pred atom) with
  | None -> -1
  | Some numbers ->
    Option.value ~default:(-1) (Tuple.Tbl.find_opt numbers (Tuple.of_atom atom))

exception Found of Subst.t

(* The first instance of [rule] that concludes [atom], the fact numbered
   [n], and whose positive premises were all inserted before it.  The
   rule is specialised to [atom] and compiled, in the body order it was
   evaluated in ({!Datalog_analysis.Safety.cdi_order}), under a head that
   lists the variables of its body, so every tuple the plan emits
   completes the grounding substitution. *)
let justify model rule atom n =
  match Unify.matches ~pattern:(Rule.head rule) ~ground:atom with
  | None -> None
  | Some head_subst -> (
    let body =
      List.map (Subst.apply_literal head_subst)
        (Rule.body (Datalog_analysis.Safety.cdi_order rule))
    in
    let vars = Rule.body_vars (Rule.make atom body) in
    let head = Pred.make "%instance" (List.length vars) in
    let capture =
      Rule.make (Atom.make head (Array.of_list (List.map Term.var vars))) body
    in
    let plan =
      Plan.compile (Plan.config ()) ~card:(Database.cardinal model.db) capture
    in
    let earlier subst =
      List.for_all
        (fun a -> number model (Subst.apply_atom subst a) < n)
        (Rule.positive_body rule)
    in
    match
      Plan.run plan (Counters.create ())
        ~rel_of:(fun _ pred -> Database.find model.db pred)
        ~neg:(fun pred t -> not (Database.mem model.db pred t))
        (fun _ values ->
          let subst =
            List.fold_left2
              (fun s v c -> Subst.bind v (Term.const (Code.to_value c)) s)
              head_subst vars (Array.to_list values)
          in
          if earlier subst then raise (Found subst))
    with
    | () -> None
    | exception Found subst -> Some (rule, subst))

let explain ?(max_depth = 10_000) program atom =
  if not (Atom.is_ground atom) then
    invalid_arg "Provenance.explain: atom not ground";
  let ( let* ) = Result.bind in
  let exception Too_deep in
  let prove model =
    (* each atom's proof and height, built once *)
    let memo : (proof * int) Atom.Tbl.t = Atom.Tbl.create 256 in
    let rec build level atom =
      if level > max_depth then raise Too_deep;
      match Atom.Tbl.find_opt memo atom with
      | Some (proof, height) ->
        if level + height - 1 > max_depth then raise Too_deep;
        (proof, height)
      | None ->
        let n = number model atom in
        let node =
          if n < 0 then (Fact atom, 1)
          else
            match
              List.find_map
                (fun rule -> justify model rule atom n)
                (Program.rules_for program (Atom.pred atom))
            with
            | None -> assert false (* the instance the engine fired is one *)
            | Some (rule, subst) ->
              let height = ref 0 in
              let premises =
                List.map
                  (fun lit ->
                    match Subst.apply_literal subst lit with
                    | Literal.Pos a ->
                      let proof, h = build (level + 1) a in
                      height := max !height h;
                      Proved proof
                    | Literal.Neg a -> Absent a
                    | Literal.Cmp (_, _, _) as c -> Holds c)
                  (Rule.body rule)
              in
              ( Derived { conclusion = atom; rule; subst; premises },
                1 + !height )
        in
        Atom.Tbl.replace memo atom node;
        node
    in
    if not (Database.mem_atom model.db atom) then Ok None
    else
      match build 1 atom with
      | proof, _ -> Ok (Some proof)
      | exception Too_deep ->
        Error
          (Format.asprintf "the proof of %a exceeds the depth limit of %d"
             Atom.pp atom max_depth)
  in
  match
    let* () =
      Result.map_error (String.concat "\n")
        (Datalog_analysis.Safety.check_program program)
    in
    let* model = saturate program in
    prove model
  with
  | result -> result
  | exception Plan.Unsafe_rule msg -> Error msg

let rec pp ppf proof =
  match proof with
  | Fact a -> Format.fprintf ppf "%a  [fact]" Atom.pp a
  | Derived { conclusion; rule; premises; _ } ->
    Format.fprintf ppf "@[<v 2>%a  [by %a]" Atom.pp conclusion Rule.pp rule;
    List.iter
      (fun premise ->
        Format.pp_print_cut ppf ();
        match premise with
        | Proved sub -> pp ppf sub
        | Absent a -> Format.fprintf ppf "not %a  [absent]" Atom.pp a
        | Holds lit -> Format.fprintf ppf "%a  [holds]" Literal.pp lit)
      premises;
    Format.fprintf ppf "@]"

open Datalog_ast
module Safety = Datalog_analysis.Safety

type t =
  | Atom of Atom.t
  | Cmp of Literal.cmp * Term.t * Term.t
  | And of t * t
  | Or of t * t
  | Not of t
  | Exists of string list * t
  | Forall of string list * t

let atom a = Atom a
let cmp op t1 t2 = Cmp (op, t1, t2)
let conj f g = And (f, g)
let disj f g = Or (f, g)
let neg f = Not f
let exists vars f = Exists (vars, f)
let forall vars f = Forall (vars, f)
let imp f g = Not (And (f, Not g))

let dedup vars =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun v ->
      if Hashtbl.mem seen v then false
      else begin
        Hashtbl.add seen v ();
        true
      end)
    vars

let rec free_vars = function
  | Atom a -> Atom.var_set a
  | Cmp (_, t1, t2) -> dedup (Term.vars t1 @ Term.vars t2)
  | And (f, g) | Or (f, g) -> dedup (free_vars f @ free_vars g)
  | Not f -> free_vars f
  | Exists (xs, f) | Forall (xs, f) ->
    List.filter (fun v -> not (List.mem v xs)) (free_vars f)

let rec pp ppf = function
  | Atom a -> Atom.pp ppf a
  | Cmp (op, t1, t2) ->
    Format.fprintf ppf "%a %s %a" Term.pp t1 (Literal.cmp_name op) Term.pp t2
  | And (f, g) -> Format.fprintf ppf "(%a & %a)" pp f pp g
  | Or (f, g) -> Format.fprintf ppf "(%a | %a)" pp f pp g
  | Not f -> Format.fprintf ppf "not %a" pp f
  | Exists (xs, f) ->
    Format.fprintf ppf "exists %s. %a" (String.concat ", " xs) pp f
  | Forall (xs, f) ->
    Format.fprintf ppf "forall %s. %a" (String.concat ", " xs) pp f

exception Unranged of string

(* Compile a formula into a list of body literals over its free variables,
   accumulating auxiliary rules.  Aux predicates get fresh names, so user
   predicates can never be captured. *)
let compile_formula formula =
  let rules = ref [] in
  let emit_rule head body context =
    (* every auxiliary rule must satisfy the ordered-conjunction safety
       discipline, possibly after reordering *)
    let rule = Safety.cdi_order (Rule.make head body) in
    match Safety.cdi rule with
    | Ok () -> rules := rule :: !rules
    | Error _ ->
      raise
        (Unranged
           (Format.asprintf
              "subformula %s is not constructively domain independent: no \
               ordering of [%a] binds every negated variable"
              context Rule.pp rule))
  in
  let aux_atom prefix vars =
    let pred = Pred.fresh prefix (List.length vars) in
    Atom.make pred (Array.of_list (List.map Term.var vars))
  in
  let rec literals f =
    match f with
    | Atom a -> [ Literal.pos a ]
    | Cmp (op, t1, t2) -> [ Literal.cmp op t1 t2 ]
    | And (g, h) -> literals g @ literals h
    | Or (g, h) ->
      let vg = free_vars g and vh = free_vars h in
      if List.sort String.compare vg <> List.sort String.compare vh then
        raise
          (Unranged
             (Format.asprintf
                "disjunction branches have different free variables: {%s} vs \
                 {%s}"
                (String.concat ", " vg) (String.concat ", " vh)));
      let head = aux_atom "fml_or" vg in
      emit_rule head (literals g) "left disjunct";
      emit_rule head (literals h) "right disjunct";
      [ Literal.pos head ]
    | Not (Not g) ->
      (* double-negation elimination: sound for two-valued query answers
         and required for the [forall]/[imp] desugarings to stay ranged *)
      literals g
    | Not g ->
      let head = aux_atom "fml_not" (free_vars g) in
      emit_rule head (literals g) "negated subformula";
      [ Literal.neg head ]
    | Exists (_, g) ->
      (* projection: the aux head only keeps the enclosing free vars *)
      let head = aux_atom "fml_ex" (free_vars f) in
      emit_rule head (literals g) "existential subformula";
      [ Literal.pos head ]
    | Forall (xs, g) -> literals (Not (Exists (xs, Not g)))
  in
  let top = literals formula in
  let answer = aux_atom "fml_ans" (free_vars formula) in
  emit_rule answer top "top-level formula";
  (answer, List.rev !rules)

let compile program formula =
  match compile_formula formula with
  | answer, aux_rules ->
    let extended =
      Program.make
        ~facts:(Program.facts program)
        (Program.rules program @ aux_rules)
    in
    Ok (extended, answer)
  | exception Unranged msg -> Error msg

let eval ?options program formula =
  match compile program formula with
  | Error msg -> Error msg
  | Ok (extended, query) ->
    Result.map
      (fun report -> (free_vars formula, report.Solve.answers))
      (Result.map_error Errors.message (Solve.run ?options extended query))

open Datalog_ast
open Datalog_storage

exception Unsafe_rule of string

let unsafe fmt = Format.kasprintf (fun s -> raise (Unsafe_rule s)) fmt

(* Coded binding environment: variable -> code, with the same binding
   *chain* representation as {!Datalog_ast.Subst} (a variable may be
   aliased to another variable bound further down; [resolve] chases to
   the chain end).  The evaluators only ever bind chain-end unbound
   variables, so [bind]/[alias] never rebind. *)
module Cenv = struct
  module M = Map.Make (String)

  type entry =
    | Code of Code.t
    | Alias of string

  type t = entry M.t

  let empty : t = M.empty

  type resolved =
    | Bound of Code.t
    | Free of string  (** the chain-end variable name *)

  let rec resolve env v =
    match M.find_opt v env with
    | None -> Free v
    | Some (Code c) -> Bound c
    | Some (Alias w) -> resolve env w

  let resolve_term env = function
    | Term.Const v -> Bound (Code.of_value v)
    | Term.Var v -> resolve env v

  let bind v c env : t = M.add v (Code c) env
  let alias v w env : t = M.add v (Alias w) env

  (* Boundary conversions (error messages, provenance): decode. *)
  let term_of env t =
    match resolve_term env t with
    | Bound c -> Term.const (Code.to_value c)
    | Free w -> Term.var w

  let apply_atom env a =
    Atom.make (Atom.pred a) (Array.map (term_of env) (Atom.args a))

  let to_subst env =
    M.fold
      (fun v _ acc ->
        match resolve env v with
        | Bound c -> Subst.bind v (Term.const (Code.to_value c)) acc
        | Free w ->
          if String.equal v w then acc else Subst.bind v (Term.var w) acc)
      env Subst.empty
end

(* Split an atom's arguments under an environment into index constraints
   (bound positions, as codes) and the residual pattern to match. *)
let bound_positions env atom =
  let args = Atom.args atom in
  let bindings = ref [] in
  Array.iteri
    (fun i t ->
      match Cenv.resolve_term env t with
      | Cenv.Bound c -> bindings := (i, c) :: !bindings
      | Cenv.Free _ -> ())
    args;
  List.rev !bindings

(* Extend [env] so that [atom] matches [tuple]; [None] on clash (a
   repeated variable or a constant that differs). *)
let match_tuple env atom (tuple : Tuple.t) =
  let args = Atom.args atom in
  let n = Array.length args in
  let rec go i env =
    if i >= n then Some env
    else
      match Cenv.resolve_term env args.(i) with
      | Cenv.Bound c -> if Code.equal c tuple.(i) then go (i + 1) env else None
      | Cenv.Free v -> go (i + 1) (Cenv.bind v tuple.(i) env)
  in
  go 0 env

let ground_tuple env atom : Tuple.t =
  Array.map
    (fun t ->
      match Cenv.resolve_term env t with
      | Cenv.Bound c -> c
      | Cenv.Free _ ->
        unsafe "negative literal %a not ground at evaluation time" Atom.pp
          (Cenv.apply_atom env atom))
    (Atom.args atom)

let term_of_resolved = function
  | Cenv.Bound c -> Term.const (Code.to_value c)
  | Cenv.Free w -> Term.var w

let solve_body cnt ?(guard = Limits.no_guard) ?(profile = Profile.none)
    ~rel_of ~neg body env emit =
  let rec go i body env =
    match body with
    | [] -> emit env
    | Literal.Pos atom :: rest -> (
      match rel_of i (Atom.pred atom) with
      | None -> ()
      | Some rel ->
        let bound = bound_positions env atom in
        cnt.Counters.probes <- cnt.Counters.probes + 1;
        let candidates, width = Relation.select_count rel bound in
        if Profile.is_active profile then
          Profile.probe profile (Atom.pred atom) ~scanned:width;
        List.iter
          (fun tuple ->
            Limits.check guard;
            cnt.Counters.scanned <- cnt.Counters.scanned + 1;
            match match_tuple env atom tuple with
            | Some env' -> go (i + 1) rest env'
            | None -> ())
          candidates)
    | Literal.Neg atom :: rest ->
      if neg (Atom.pred atom) (ground_tuple env atom) then go (i + 1) rest env
    | Literal.Cmp (op, t1, t2) :: rest -> (
      let r1 = Cenv.resolve_term env t1 and r2 = Cenv.resolve_term env t2 in
      match op, r1, r2 with
      | _, Cenv.Bound c1, Cenv.Bound c2 ->
        if Code.eval_cmp op c1 c2 then go (i + 1) rest env
      | Literal.Eq, Cenv.Free v, Cenv.Bound c
      | Literal.Eq, Cenv.Bound c, Cenv.Free v ->
        go (i + 1) rest (Cenv.bind v c env)
      | Literal.Eq, Cenv.Free v, Cenv.Free w ->
        (* aliasing two unbound variables is allowed for [=] *)
        if String.equal v w then go (i + 1) rest env
        else go (i + 1) rest (Cenv.alias v w env)
      | _, _, _ ->
        unsafe "comparison %a with unbound variable" Literal.pp
          (Literal.Cmp (op, term_of_resolved r1, term_of_resolved r2)))
  in
  go 0 body env

let db_rel_of db _i pred = Database.find db pred

let closed_world_neg db pred tuple = not (Database.mem db pred tuple)

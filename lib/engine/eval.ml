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

  (* Boundary conversion (error messages): decode. *)
  let term_of_resolved = function
    | Bound c -> Term.const (Code.to_value c)
    | Free w -> Term.var w

  let apply_atom env a =
    Atom.make (Atom.pred a)
      (Array.map (fun t -> term_of_resolved (resolve_term env t)) (Atom.args a))
end

let term_of_resolved = Cenv.term_of_resolved

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

let db_rel_of db _i pred = Database.find db pred

let closed_world_neg db pred tuple = not (Database.mem db pred tuple)

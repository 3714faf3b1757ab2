(* Interpreted rule application: the differential oracle for compiled
   plans ({!Datalog_engine.Plan.run}).  A rule fires once per body match
   found by [solve_body], left to right, with the same counter
   increments, guard polls and unsafe-rule messages as a plan compiled
   under the left-to-right SIP.  Bindings live in coded environments
   ([Cenv]); values are decoded only to build error messages. *)

open Datalog_ast
open Datalog_storage
open Datalog_engine

(* Coded binding environment: variable -> code, with the same binding
   *chain* representation as {!Datalog_ast.Subst} (a variable may be
   aliased to another variable bound further down; [resolve] chases to
   the chain end).  The interpreter only ever binds chain-end unbound
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
    | Free of string  (* the chain-end variable name *)

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

(* The argument positions of [atom] that are ground under [env], with
   their codes: the index constraints a lookup can use. *)
let bound_positions env atom =
  let bindings = ref [] in
  Array.iteri
    (fun i t ->
      match Cenv.resolve_term env t with
      | Cenv.Bound c -> bindings := (i, c) :: !bindings
      | Cenv.Free _ -> ())
    (Atom.args atom);
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
        raise
          (Plan.Unsafe_rule
             (Format.asprintf
                "negative literal %a not ground at evaluation time" Atom.pp
                (Cenv.apply_atom env atom))))
    (Atom.args atom)

(* [solve_body cnt ~rel_of ~neg body env emit] calls [emit] once per
   environment extending [env] that satisfies [body]: an index-backed
   nested-loop join with backtracking.  [rel_of i pred] supplies the
   relation scanned by the positive literal at body position [i] ([None]
   = empty); [neg pred tuple] decides ground negated atoms; comparisons
   filter (or, for [=] with one unbound side, bind).  [guard] is polled
   once per candidate tuple, and an active [profile] records one probe
   (with its scan width) per positive-literal lookup. *)
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
      if neg (Atom.pred atom) (ground_tuple env atom) then
        go (i + 1) rest env
    | Literal.Cmp (op, t1, t2) :: rest -> (
      let r1 = Cenv.resolve_term env t1
      and r2 = Cenv.resolve_term env t2 in
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
        raise
          (Plan.Unsafe_rule
             (Format.asprintf "comparison %a with unbound variable" Literal.pp
                (Literal.Cmp
                   (op, Cenv.term_of_resolved r1, Cenv.term_of_resolved r2)))))
  in
  go 0 body env

let apply_rule cnt ?(guard = Limits.no_guard) ?profile ~rel_of ~neg rule emit =
  let head = Rule.head rule in
  solve_body cnt ~guard ?profile ~rel_of ~neg (Rule.body rule) Cenv.empty
    (fun env ->
      Limits.check_derived guard;
      cnt.Counters.firings <- cnt.Counters.firings + 1;
      let tuple =
        Array.map
          (fun t ->
            match Cenv.resolve_term env t with
            | Cenv.Bound c -> c
            | Cenv.Free _ ->
              raise
                (Plan.Unsafe_rule
                   (Format.asprintf "derived non-ground head %a in rule %a"
                      Atom.pp
                      (Cenv.apply_atom env head)
                      Rule.pp rule)))
          (Atom.args head)
      in
      emit (Atom.pred head) tuple)

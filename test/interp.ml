(* Interpreted rule application: the differential oracle for compiled
   plans ({!Datalog_engine.Plan.run}).  A rule fires once per body match
   found by [solve_body], left to right, with the same counter
   increments, guard polls and unsafe-rule messages as a plan compiled
   under the left-to-right SIP. *)

open Datalog_ast
open Datalog_storage
open Datalog_engine

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
        let bound = Eval.bound_positions env atom in
        cnt.Counters.probes <- cnt.Counters.probes + 1;
        let candidates, width = Relation.select_count rel bound in
        if Profile.is_active profile then
          Profile.probe profile (Atom.pred atom) ~scanned:width;
        List.iter
          (fun tuple ->
            Limits.check guard;
            cnt.Counters.scanned <- cnt.Counters.scanned + 1;
            match Eval.match_tuple env atom tuple with
            | Some env' -> go (i + 1) rest env'
            | None -> ())
          candidates)
    | Literal.Neg atom :: rest ->
      if neg (Atom.pred atom) (Eval.ground_tuple env atom) then
        go (i + 1) rest env
    | Literal.Cmp (op, t1, t2) :: rest -> (
      let r1 = Eval.Cenv.resolve_term env t1
      and r2 = Eval.Cenv.resolve_term env t2 in
      match op, r1, r2 with
      | _, Eval.Cenv.Bound c1, Eval.Cenv.Bound c2 ->
        if Code.eval_cmp op c1 c2 then go (i + 1) rest env
      | Literal.Eq, Eval.Cenv.Free v, Eval.Cenv.Bound c
      | Literal.Eq, Eval.Cenv.Bound c, Eval.Cenv.Free v ->
        go (i + 1) rest (Eval.Cenv.bind v c env)
      | Literal.Eq, Eval.Cenv.Free v, Eval.Cenv.Free w ->
        (* aliasing two unbound variables is allowed for [=] *)
        if String.equal v w then go (i + 1) rest env
        else go (i + 1) rest (Eval.Cenv.alias v w env)
      | _, _, _ ->
        raise
          (Eval.Unsafe_rule
             (Format.asprintf "comparison %a with unbound variable" Literal.pp
                (Literal.Cmp
                   (op, Eval.term_of_resolved r1, Eval.term_of_resolved r2)))))
  in
  go 0 body env

let apply_rule cnt ?(guard = Limits.no_guard) ?profile ~rel_of ~neg rule emit =
  let head = Rule.head rule in
  solve_body cnt ~guard ?profile ~rel_of ~neg (Rule.body rule) Eval.Cenv.empty
    (fun env ->
      Limits.check_derived guard;
      cnt.Counters.firings <- cnt.Counters.firings + 1;
      let tuple =
        Array.map
          (fun t ->
            match Eval.Cenv.resolve_term env t with
            | Eval.Cenv.Bound c -> c
            | Eval.Cenv.Free _ ->
              raise
                (Eval.Unsafe_rule
                   (Format.asprintf "derived non-ground head %a in rule %a"
                      Atom.pp
                      (Eval.Cenv.apply_atom env head)
                      Rule.pp rule)))
          (Atom.args head)
      in
      emit (Atom.pred head) tuple)

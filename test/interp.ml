(* Interpreted rule application: the differential oracle for compiled
   plans ({!Datalog_engine.Plan.run}).  A rule fires once per body match
   found by {!Datalog_engine.Eval.solve_body}, left to right, with the
   same counter increments, guard polls and unsafe-rule messages as a
   plan compiled under the left-to-right SIP. *)

open Datalog_ast
open Datalog_engine

let apply_rule cnt ?(guard = Limits.no_guard) ?profile ~rel_of ~neg rule emit =
  let head = Rule.head rule in
  Eval.solve_body cnt ~guard ?profile ~rel_of ~neg (Rule.body rule)
    Eval.Cenv.empty (fun env ->
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

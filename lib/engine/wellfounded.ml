open Datalog_ast
open Datalog_storage

type outcome = {
  true_db : Database.t;
  undefined : Atom.t list;
  rounds : int;
  counters : Counters.t;
  status : Limits.status;
}

(* Transformation-based bottom-up computation (Brass & Dix): instead of
   alternating whole-program fixpoints, run

   1. a compiled seminaive fixpoint of the {e definite} subset (rules
      whose negations are all extensional) — atoms certainly true;
   2. a compiled seminaive fixpoint with intensional negations stripped
      — an overestimate; atoms outside it are certainly false;
   3. one conditional fixpoint whose delayed negations are pre-decided
      against the two approximations (the success and failure
      transformations), followed by {!Conditional}'s positive-reduction
      loop on the — now much smaller — residual program.

   Phases 1–2 reuse the compiled-plan path, so the bulk of the work runs
   through the same join machinery (and counters) as the other engines;
   the condition-set interpreter only sees the genuinely undecided
   slice. *)
let run ?(limits = Limits.none) ?(profile = Profile.none) ?plan ?db program =
  let counters = Counters.create () in
  let guard = Limits.guard limits counters in
  let seed = match db with Some db -> db | None -> Database.create () in
  List.iter (fun a -> ignore (Database.add_atom seed a)) (Program.facts program);
  let rules = Program.rules program in
  let is_idb p = Program.is_idb program p in
  let neg_edb pred tuple = not (Database.mem seed pred tuple) in
  let definite =
    List.filter
      (fun r ->
        List.for_all
          (function
            | Literal.Neg a -> not (is_idb (Atom.pred a))
            | Literal.Pos _ | Literal.Cmp _ -> true)
          (Rule.body r))
      rules
  in
  let stripped =
    List.map
      (fun r ->
        Rule.make (Rule.head r)
          (List.filter
             (function
               | Literal.Neg a -> not (is_idb (Atom.pred a))
               | Literal.Pos _ | Literal.Cmp _ -> true)
             (Rule.body r)))
      rules
  in
  let t0 = Database.copy seed in
  let over = Database.copy seed in
  match
    Profile.note profile (fun () ->
        "well-founded: definite-core fixpoint (certain facts)");
    Fixpoint.seminaive counters ~guard ~profile ?plan ~db:t0 ~neg:neg_edb
      definite;
    Profile.note profile (fun () ->
        "well-founded: stripped-negation fixpoint (possible facts)");
    Fixpoint.seminaive counters ~guard ~profile ?plan ~db:over ~neg:neg_edb
      stripped
  with
  | exception Limits.Out_of_budget reason ->
    (* the definite facts derived so far are sound; without a completed
       overestimate no undefined atom can be named *)
    { true_db = t0;
      undefined = [];
      rounds = counters.Counters.iterations;
      counters;
      status = Limits.Exhausted reason
    }
  | () ->
    Profile.note profile (fun () ->
        "well-founded: residual-program conditional fixpoint");
    let oracle a =
      if Database.mem_atom t0 a then `True
      else if not (Database.mem_atom over a) then `False
      else `Undecided
    in
    let c =
      Conditional.run ~limits ~profile ?plan ~counters ~oracle
        ~db:(Database.copy t0) program
    in
    { true_db = c.Conditional.true_db;
      undefined = c.Conditional.undefined;
      rounds = counters.Counters.iterations;
      counters;
      status = c.Conditional.status
    }

let holds outcome atom = Database.mem_atom outcome.true_db atom

let is_undefined outcome atom =
  List.exists (Atom.equal atom) outcome.undefined

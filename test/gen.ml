(* Random program generators shared by the engine / rewrite / equivalence
   property tests.

   Rules are generated in "chain" shape — head p(V0, Vn), body literals
   linking V(i-1) to V(i) — which guarantees range restriction and gives
   every rewriting a working sideways information passing, while still
   producing mutual recursion, shared variables, constants, and (for the
   stratified generator) negation. *)

open Datalog_ast
module G = QCheck.Gen

let const_gen = G.map Term.int (G.int_bound 5)

let vars = [| "X"; "Y"; "Z"; "W" |]

(* facts for an EDB predicate over the 0..5 domain *)
let facts_gen pred =
  G.(
    let* n = int_range 4 20 in
    let* pairs = list_repeat n (pair (int_bound 5) (int_bound 5)) in
    return
      (List.map (fun (a, b) -> Atom.app pred [ Term.int a; Term.int b ]) pairs))

(* a chain rule for [head_pred] over the allowed body predicates *)
let chain_rule_gen head_pred body_preds =
  G.(
    let* len = int_range 1 3 in
    (* variables V0 .. Vlen along the chain *)
    let var i = Term.var vars.(i) in
    let* body_choices = list_repeat len (oneofl body_preds) in
    let* swap_flags = list_repeat len bool in
    let* use_const = G.frequency [ (3, return false); (1, return true) ] in
    let* const_pos = int_bound 5 in
    let body =
      List.mapi
        (fun i (pred, swap) ->
          let a = var i and b = var (i + 1) in
          let a, b = if swap then (b, a) else (a, b) in
          Literal.pos (Atom.app pred [ a; b ]))
        (List.combine body_choices swap_flags)
    in
    let head_args =
      if use_const then [ var 0; Term.int const_pos ] else [ var 0; var len ]
    in
    let head = Atom.app head_pred head_args in
    let rule = Rule.make head body in
    (* a head constant can make the rule unsafe for the second argument;
       chain heads are safe by construction otherwise *)
    match Datalog_analysis.Safety.range_restricted rule with
    | Ok () -> return rule
    | Error _ -> return (Rule.make (Atom.app head_pred [ var 0; var len ]) body))

(* ---------------------------------------------------------------- *)
(* Positive programs *)

let positive_program_gen =
  G.(
    let* e_facts = facts_gen "e" in
    let* f_facts = facts_gen "f" in
    let idb = [ "p0"; "p1"; "p2" ] in
    let body_preds = [ "e"; "f"; "p0"; "p1"; "p2" ] in
    let* rules =
      List.fold_left
        (fun acc head ->
          let* acc = acc in
          let* n = int_range 1 3 in
          let* rs = list_repeat n (chain_rule_gen head body_preds) in
          return (acc @ rs))
        (return []) idb
    in
    (* make sure every IDB predicate has at least one non-recursive rule so
       fixpoints are usually non-empty *)
    let* base =
      List.fold_left
        (fun acc head ->
          let* acc = acc in
          let* r = chain_rule_gen head [ "e"; "f" ] in
          return (r :: acc))
        (return []) idb
    in
    return (Program.make ~facts:(e_facts @ f_facts) (base @ rules)))

(* Up to four facts over the IDB predicates p0..p2, none about half the
   time: facts a rule head also derives, which evaluation seeds and DRed
   must never over-delete. *)
let idb_facts_gen =
  G.(
    let* n = frequency [ (1, return 0); (1, int_range 1 4) ] in
    list_repeat n
      (map3
         (fun p a b -> Atom.app p [ Term.int a; Term.int b ])
         (oneofl [ "p0"; "p1"; "p2" ])
         (int_bound 5) (int_bound 5)))

let with_idb_facts program_gen =
  G.(
    let* program = program_gen in
    let* idb_facts = idb_facts_gen in
    return
      (Program.make
         ~facts:(Program.facts program @ idb_facts)
         (Program.rules program)))

let arb_positive_program_idb_facts =
  QCheck.make ~print:(Format.asprintf "%a" Program.pp)
    (with_idb_facts positive_program_gen)

let bound_query_gen =
  G.(
    let* pred = oneofl [ "p0"; "p1"; "p2" ] in
    let* c = int_bound 5 in
    let* side = bool in
    return
      (if side then Atom.app pred [ Term.int c; Term.var "Q" ]
       else Atom.app pred [ Term.var "Q"; Term.int c ]))

(* both arguments constant: the adorned program then carries a {bb, bf}
   comparable pair whenever the query predicate also occurs free-ended in
   a body, which is what exercises the runtime subsumption filter *)
let both_bound_query_gen =
  G.(
    let* pred = oneofl [ "p0"; "p1"; "p2" ] in
    let* a = int_bound 5 in
    let* b = int_bound 5 in
    return (Atom.app pred [ Term.int a; Term.int b ]))

let any_bound_query_gen =
  G.oneof [ bound_query_gen; both_bound_query_gen ]

let positive_with_query_gen = G.pair positive_program_gen bound_query_gen

let print_program_query (p, q) =
  Format.asprintf "%a@.?- %a." Program.pp p Atom.pp q

let arb_positive_program_query =
  QCheck.make ~print:print_program_query positive_with_query_gen

let arb_positive_program =
  QCheck.make ~print:(Format.asprintf "%a" Program.pp) positive_program_gen

let arb_positive_program_any_query =
  QCheck.make ~print:print_program_query
    (G.pair positive_program_gen any_bound_query_gen)

(* ---------------------------------------------------------------- *)
(* Stratified programs with negation *)

let stratified_program_gen =
  G.(
    let* e_facts = facts_gen "e" in
    let* f_facts = facts_gen "f" in
    (* layer 0: p0; layer 1: p1 may negate p0; layer 2: p2 may negate p0/p1 *)
    let make_layer head allowed_pos allowed_neg =
      let* n = int_range 1 2 in
      let* rs = list_repeat n (chain_rule_gen head allowed_pos) in
      let* with_neg =
        flatten_l
          (List.map
             (fun r ->
               let* add = bool in
               match allowed_neg, add with
               | [], _ | _, false -> return r
               | negs, true ->
                 let* np = oneofl negs in
                 (* negate over variables already bound by the chain *)
                 let head_vars = Atom.var_set (Rule.head r) in
                 let v =
                   match head_vars with v :: _ -> v | [] -> "X"
                 in
                 let* c = int_bound 5 in
                 let neg_lit =
                   Literal.neg (Atom.app np [ Term.var v; Term.int c ])
                 in
                 return (Rule.make (Rule.head r) (Rule.body r @ [ neg_lit ])))
             rs)
      in
      return with_neg
    in
    let* l0 = make_layer "p0" [ "e"; "f"; "p0" ] [] in
    let* l1 = make_layer "p1" [ "e"; "f"; "p1" ] [ "p0" ] in
    let* l2 = make_layer "p2" [ "e"; "p1"; "p2" ] [ "p0"; "p1" ] in
    return (Program.make ~facts:(e_facts @ f_facts) (l0 @ l1 @ l2)))

let arb_stratified_program =
  QCheck.make ~print:(Format.asprintf "%a" Program.pp) stratified_program_gen

let arb_stratified_program_query =
  QCheck.make ~print:print_program_query
    (G.pair stratified_program_gen bound_query_gen)

(* ---------------------------------------------------------------- *)
(* Unrestricted negation: negative cycles allowed *)

(* Like the stratified generator but any IDB predicate may be negated in
   any rule, so negation can run through recursion (win–move-like
   programs, generally not stratifiable).  The domain stays 0..5, so
   both well-founded engines terminate. *)
let unstratified_program_gen =
  G.(
    let* e_facts = facts_gen "e" in
    let* f_facts = facts_gen "f" in
    let idb = [ "p0"; "p1"; "p2" ] in
    let* rules =
      flatten_l
        (List.map
           (fun head ->
             let* r = chain_rule_gen head [ "e"; "f"; "p0"; "p1"; "p2" ] in
             let* add = bool in
             if not add then return r
             else
               let* np = oneofl idb in
               let v =
                 match Atom.var_set (Rule.head r) with
                 | v :: _ -> v
                 | [] -> "X"
               in
               let* c = int_bound 5 in
               let neg_lit =
                 Literal.neg (Atom.app np [ Term.var v; Term.int c ])
               in
               return (Rule.make (Rule.head r) (Rule.body r @ [ neg_lit ])))
           (idb @ idb))
    in
    (* base rules keep the positive part non-trivial *)
    let* base =
      flatten_l (List.map (fun head -> chain_rule_gen head [ "e"; "f" ]) idb)
    in
    return (Program.make ~facts:(e_facts @ f_facts) (base @ rules)))

let arb_unstratified_program =
  QCheck.make ~print:(Format.asprintf "%a" Program.pp) unstratified_program_gen

(* ---------------------------------------------------------------- *)
(* Comparing databases restricted to given predicates *)

let db_facts_of preds db =
  List.concat_map
    (fun pred ->
      List.map
        (fun t -> Datalog_storage.Tuple.to_atom pred t)
        (Datalog_storage.Database.tuples db pred))
    preds
  |> List.sort Atom.compare

let idb_preds program = Pred.Set.elements (Program.idb program)

(* Analysis tests: dependency graph, stratification (predicate-level,
   ground/local, loose), and safety conditions. *)

open Datalog_ast
open Datalog_analysis

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let prog = Datalog_parser.Parser.program_of_string
let rule = Datalog_parser.Parser.rule_of_string

(* -------------------------------------------------------------------- *)
(* Dependency graph *)

let test_depgraph_edges () =
  let p = prog "p(X) :- q(X, Y), not r(Y). q(X, Y) :- e(X, Y)." in
  let g = Depgraph.make p in
  let succ_p = Depgraph.successors g (Pred.make "p" 1) in
  check tint "p has two successors" 2 (List.length succ_p);
  check tbool "p -> q positive" true
    (List.exists
       (fun (q, s) -> Pred.name q = "q" && s = Depgraph.Positive)
       succ_p);
  check tbool "p -> r negative" true
    (List.exists
       (fun (q, s) -> Pred.name q = "r" && s = Depgraph.Negative)
       succ_p)

let test_depgraph_depends_on () =
  let p = prog "a(X) :- b(X). b(X) :- c(X). d(X) :- e(X)." in
  let g = Depgraph.make p in
  let pr n = Pred.make n 1 in
  check tbool "a on c (transitive)" true (Depgraph.depends_on g (pr "a") (pr "c"));
  check tbool "a on a (reflexive)" true (Depgraph.depends_on g (pr "a") (pr "a"));
  check tbool "a not on e" false (Depgraph.depends_on g (pr "a") (pr "e"))

let test_depgraph_sccs_order () =
  let p = prog "a(X) :- b(X). b(X) :- a(X), c(X). c(X) :- e(X)." in
  let g = Depgraph.make p in
  let sccs = Depgraph.sccs g in
  let index_of name =
    let rec go i = function
      | [] -> -1
      | comp :: rest ->
        if List.exists (fun p -> Pred.name p = name) comp then i
        else go (i + 1) rest
    in
    go 0 sccs
  in
  check tbool "a and b share a component" true
    (index_of "a" = index_of "b");
  check tbool "dependency c comes before a/b" true (index_of "c" < index_of "a");
  check tbool "e (leaf) before c" true (index_of "e" < index_of "c")

(* -------------------------------------------------------------------- *)
(* Stratification *)

let test_stratified_positive () =
  let p = prog "anc(X,Y) :- e(X,Y). anc(X,Y) :- e(X,Z), anc(Z,Y)." in
  check tbool "positive programs stratify" true (Stratify.is_stratified p)

let test_stratified_layers () =
  let p =
    prog
      "reach(X) :- src(X). reach(X) :- reach(Y), e(Y, X).\n\
       unreach(X) :- node(X), not reach(X).\n\
       doubly(X) :- unreach(X), not src(X)."
  in
  match Stratify.stratification p with
  | None -> Alcotest.fail "should stratify"
  | Some strata ->
    let stratum name arity =
      Pred.Map.find (Pred.make name arity) strata.Stratify.of_pred
    in
    check tint "edb at 0" 0 (stratum "e" 2);
    check tint "reach at 0" 0 (stratum "reach" 1);
    check tint "unreach above reach" 1 (stratum "unreach" 1);
    check tint "doubly above unreach" 1 (stratum "doubly" 1);
    (* doubly only negates src (stratum 0) and uses unreach positively, so
       it can share unreach's stratum *)
    ()

let test_not_stratified_winmove () =
  let p = prog "win(X) :- move(X, Y), not win(Y)." in
  check tbool "win-move not stratified" false (Stratify.is_stratified p);
  match Stratify.negative_cycle p with
  | Some comp ->
    check tbool "cycle contains win" true
      (List.exists (fun q -> Pred.name q = "win") comp)
  | None -> Alcotest.fail "expected a witness"

let test_rules_of_stratum () =
  let p = prog "a(X) :- e(X). b(X) :- e(X), not a(X)." in
  match Stratify.stratification p with
  | None -> Alcotest.fail "stratifies"
  | Some strata ->
    check tint "stratum 0 rules" 1
      (List.length (Stratify.rules_of_stratum p strata 0));
    check tint "stratum 1 rules" 1
      (List.length (Stratify.rules_of_stratum p strata 1))

(* -------------------------------------------------------------------- *)
(* Local stratification on the ground instantiation *)

let test_locally_stratified_odd () =
  (* even over a finite acyclic successor chain: not stratified; not
     locally stratified on the full Herbrand instantiation (the X = Y
     instance negates its own head), but locally stratified once vacuous
     instances — succ(0,0) is no fact — are pruned *)
  let p =
    prog
      "even(X) :- succ(Y, X), not even(Y).\n\
       succ(0, 1). succ(1, 2). succ(2, 3)."
  in
  check tbool "not locally stratified (pure Herbrand)" true
    (match Stratify.locally_stratified_ground p with
    | Stratify.Not_locally_stratified _ -> true
    | _ -> false);
  check tbool "locally stratified (EDB-aware)" true
    (Stratify.locally_stratified_ground ~prune_edb:true p
    = Stratify.Locally_stratified)

let test_not_locally_stratified () =
  (* p(a) depends negatively on itself through q(a,a), a real fact, so
     even the EDB-aware variant rejects *)
  let p = prog "p(X) :- q(X, Y), not p(Y). q(a, a)." in
  match Stratify.locally_stratified_ground ~prune_edb:true p with
  | Stratify.Not_locally_stratified cycle ->
    check tbool "cycle mentions p(a)" true
      (List.exists
         (fun a -> Format.asprintf "%a" Atom.pp a = "p(a)")
         cycle)
  | Stratify.Locally_stratified -> Alcotest.fail "should not be locally stratified"
  | Stratify.Ground_too_large -> Alcotest.fail "instantiation small enough"

let test_locally_stratified_bry_example () =
  (* Figure 1 of the Bry paper: q(a,1) only.  Pure Herbrand: not locally
     stratified (as the paper states).  EDB-aware: the offending instances
     can never fire, so it passes. *)
  let p = prog "p(X) :- q(X, Y), not p(Y). q(a, 1)." in
  check tbool "pure Herbrand rejects" true
    (match Stratify.locally_stratified_ground p with
    | Stratify.Not_locally_stratified _ -> true
    | _ -> false);
  check tbool "EDB-aware accepts" true
    (Stratify.locally_stratified_ground ~prune_edb:true p
    = Stratify.Locally_stratified)

let test_ground_too_large () =
  let p = prog "p(A,B,C,D,E,F,G,H) :- q(A,B,C,D,E,F,G,H), not p(B,A,C,D,E,F,G,H). q(1,2,3,4,5,6,7,8)." in
  check tbool "guard triggers" true
    (Stratify.locally_stratified_ground ~max_instances:10 p
    = Stratify.Ground_too_large)

let test_active_domain () =
  let p = prog "p(X) :- q(X, 3). q(a, 3). q(b, 4)." in
  (* distinct constants: 3, 4, a, b *)
  check tint "domain size" 4 (List.length (Stratify.active_domain p))

(* -------------------------------------------------------------------- *)
(* Loose stratification *)

let test_loose_accepts_stratified () =
  let p = prog "t(X,Y) :- e(X,Y). t(X,Y) :- e(X,Z), t(Z,Y). s(X) :- n(X), not t(X, X)." in
  check tbool "stratified implies loose" true (Loose.is_loosely_stratified p)

let test_loose_rejects_winmove () =
  let p = prog "win(X) :- move(X, Y), not win(Y)." in
  match Loose.check p with
  | Loose.Not_loose trace ->
    check tbool "trace non-empty" true (trace <> [])
  | Loose.Loose | Loose.Inconclusive -> Alcotest.fail "win-move is not loose"

let test_loose_accepts_bry_example () =
  (* The paper's example: loosely stratified because constants a and b
     cannot unify. *)
  let p = prog "p(X, a) :- q(X, Y), not r(Z, X), not p(Z, b)." in
  check tbool "constant-guarded recursion is loose" true
    (Loose.is_loosely_stratified p)

let test_loose_rejects_figure1 () =
  (* Figure 1 of the paper: not loosely stratified (but constructively
     consistent for the given facts). *)
  let p = prog "p(X) :- q(X, Y), not p(Y). q(a, 1)." in
  match Loose.check p with
  | Loose.Not_loose _ -> ()
  | Loose.Loose | Loose.Inconclusive ->
    Alcotest.fail "figure 1 program is not loosely stratified"

let test_loose_two_rule_cycle () =
  (* negative cycle through two predicates *)
  let p = prog "p(X) :- a(X), not q(X). q(X) :- b(X), not p(X)." in
  (match Loose.check p with
  | Loose.Not_loose _ -> ()
  | _ -> Alcotest.fail "two-rule negative cycle must be found");
  (* same shape but guarded by distinct constants: loose *)
  let p2 = prog "p(X, a) :- c(X), not q(X, b). q(X, a) :- d(X), not p(X, b)." in
  check tbool "constant-guarded two-rule cycle is loose" true
    (Loose.is_loosely_stratified p2)

let test_loose_implies_constructive_consistency () =
  (* Bry's Corollary 5.2 observed: loosely stratified (though not
     stratified) programs are constructively consistent — the conditional
     fixpoint leaves no residual statements, and the well-founded model is
     two-valued *)
  let cases =
    [ "p(X, a) :- e(X, Y), not p(Y, b). e(1, 2). e(2, 3). e(3, 1).";
      "p(X, a) :- c(X), not q(X, b). q(X, a) :- d(X), not p(X, b).\n\
       c(1). c(2). d(2). d(3).";
      "r(X, a) :- e(X, Y), not r(Y, b). r(X, b) :- f(X), not r(X, c).\n\
       e(1, 2). f(2). f(9)."
    ]
  in
  List.iter
    (fun src ->
      let program = prog src in
      check tbool "not stratified" false (Stratify.is_stratified program);
      check tbool "loosely stratified" true (Loose.is_loosely_stratified program);
      let cond = Datalog_engine.Conditional.run program in
      check tint "no residual statements" 0
        (List.length cond.Datalog_engine.Conditional.residual);
      let wf = Datalog_engine.Wellfounded.run program in
      check tint "well-founded two-valued" 0
        (List.length wf.Datalog_engine.Wellfounded.undefined);
      (* and both procedures agree on the true atoms *)
      check tbool "models agree" true
        (Gen.db_facts_of
           (Gen.idb_preds program)
           cond.Datalog_engine.Conditional.true_db
        = Gen.db_facts_of
            (Gen.idb_preds program)
            wf.Datalog_engine.Wellfounded.true_db))
    cases

let prop_loose_constant_guarded_consistent =
  (* random constant-guarded programs: one negative self-reference whose
     guard constants never unify *)
  QCheck.Test.make
    ~name:"loosely stratified (constant-guarded) => conditional total"
    ~count:50
    (QCheck.make
       QCheck.Gen.(
         let* n = int_range 3 15 in
         let* pairs = list_repeat n (pair (int_bound 6) (int_bound 6)) in
         return pairs))
    (fun pairs ->
      let facts =
        List.map
          (fun (a, b) ->
            Datalog_ast.Atom.app "e"
              [ Datalog_ast.Term.int a; Datalog_ast.Term.int b ])
          pairs
      in
      let rules =
        [ Datalog_parser.Parser.rule_of_string
            "p(X, ga) :- e(X, Y), not p(Y, gb)."
        ]
      in
      let program = Program.make ~facts rules in
      Loose.is_loosely_stratified program
      &&
      let cond = Datalog_engine.Conditional.run program in
      cond.Datalog_engine.Conditional.residual = [])

(* -------------------------------------------------------------------- *)
(* Safety *)

let test_range_restricted_ok () =
  let r = rule "p(X, Y) :- e(X, Z), f(Z, Y), not g(X), X < Y." in
  check tbool "fine" true (Result.is_ok (Safety.range_restricted r))

let test_range_restricted_head_unbound () =
  let r = rule "p(X, Y) :- e(X, X)." in
  check tbool "Y unbound" true (Result.is_error (Safety.range_restricted r))

let test_range_restricted_negative_unbound () =
  let r = rule "p(X) :- e(X), not g(Y)." in
  check tbool "negated var unbound" true
    (Result.is_error (Safety.range_restricted r))

let test_range_restricted_eq_propagation () =
  let r = rule "p(X, Y) :- e(X), Y = 3." in
  check tbool "= limits Y" true (Result.is_ok (Safety.range_restricted r));
  let r2 = rule "p(X, Y) :- e(X), Y = Z, Z = 4." in
  check tbool "= chains" true (Result.is_ok (Safety.range_restricted r2))

let test_cdi_order_sensitivity () =
  let ok = rule "p(X) :- q(X), not r(X)." in
  let bad = rule "p(X) :- not r(X), q(X)." in
  check tbool "q before not r is cdi" true (Result.is_ok (Safety.cdi ok));
  check tbool "not r before q is not cdi" true (Result.is_error (Safety.cdi bad))

let test_cdi_order_repair () =
  let bad = rule "p(X) :- not r(X), q(X)." in
  check tbool "reordered is cdi" true
    (Result.is_ok (Safety.cdi (Safety.cdi_order bad)));
  let hopeless = rule "p(X) :- not r(X, Y)." in
  check tbool "unfixable stays as written" true
    (Safety.cdi_order hopeless == hopeless)

let test_check_program_collects_errors () =
  let p = prog "p(X, Y) :- e(X). q(X) :- not r(X)." in
  match Safety.check_program p with
  | Error errs -> check tint "two errors" 2 (List.length errs)
  | Ok () -> Alcotest.fail "both rules unsafe"

(* -------------------------------------------------------------------- *)
(* SIP: the shared body orderer *)

let positions ordered = List.map fst ordered
let literals ordered = List.map snd ordered

let test_sips_ltr_keeps_order () =
  let r = rule "p(X, Y) :- e(X, Z), f(Z, Y)." in
  let ordered = Sips.order ~bound:(String.equal "X") Sips.Ltr (Rule.body r) in
  check tbool "unchanged" true
    (List.equal Literal.equal (literals ordered) (Rule.body r));
  check (Alcotest.list tint) "positions" [ 0; 1 ] (positions ordered)

let test_sips_postpones_negation () =
  let r = rule "p(X) :- not q(Y), e(X, Y)." in
  match
    literals (Sips.order ~bound:(String.equal "X") Sips.Ltr (Rule.body r))
  with
  | [ Literal.Pos _; Literal.Neg _ ] -> ()
  | _ -> Alcotest.fail "negation must be postponed until bound"

let test_sips_cost_prefers_bound () =
  (* with X bound, cost picks e(X, Z) before f(W, Y) *)
  let r = rule "p(X, Y) :- f(W, Y), e(X, Z), g(Z, W)." in
  match
    literals (Sips.order ~bound:(String.equal "X") Sips.Cost (Rule.body r))
  with
  | Literal.Pos first :: _ ->
    check Alcotest.string "e first" "e" (Pred.name (Atom.pred first))
  | _ -> Alcotest.fail "positive first"

let test_sips_flushes_ready_comparisons () =
  let r = rule "p(X) :- e(X, Y), Y < 5, f(Y, Z)." in
  match
    literals (Sips.order ~bound:(fun _ -> false) Sips.Ltr (Rule.body r))
  with
  | [ Literal.Pos _; Literal.Cmp _; Literal.Pos _ ] -> ()
  | _ -> Alcotest.fail "comparison right after its variables bind"

let test_sips_first_goes_first () =
  (* the delta literal leads; the rest is ordered from its bindings *)
  let r = rule "p(X, Y) :- e(X, Z), f(Z, W), g(W, Y)." in
  let ordered =
    Sips.order ~first:2 ~bound:(fun _ -> false) Sips.Cost (Rule.body r)
  in
  check (Alcotest.list tint) "g, then f through W, then e" [ 2; 1; 0 ]
    (positions ordered)

(* A rule of the stratified generator with its body shuffled and, half
   the time, a comparison over its variables appended first; a random set
   of entry-bound variables; and, a third of the time, a positive body
   position to put first.  Every such rule is range-restricted. *)
let sip_case_gen =
  let open QCheck.Gen in
  let* program = Gen.stratified_program_gen in
  let* r = oneofl (Program.rules program) in
  let vars = Rule.body_vars r in
  let term = oneof [ map Term.var (oneofl vars); Gen.const_gen ] in
  let cmp =
    let* op = oneofl Literal.[ Eq; Neq; Lt; Leq; Gt; Geq ] in
    let* t1 = term in
    let* t2 = term in
    return [ Literal.cmp op t1 t2 ]
  in
  let* extra = oneof [ return []; cmp ] in
  let* body = shuffle_l (Rule.body r @ extra) in
  let* keep = list_repeat (List.length vars) bool in
  let bound = List.filteri (fun i _ -> List.nth keep i) vars in
  let positive =
    List.filter_map
      (fun (i, l) -> if Literal.is_positive l then Some i else None)
      (List.mapi (fun i l -> (i, l)) body)
  in
  let* first =
    frequency [ (2, return None); (1, map Option.some (oneofl positive)) ]
  in
  return (Rule.make (Rule.head r) body, bound, first)

let arb_sip_case =
  QCheck.make
    ~print:(fun (r, bound, first) ->
      Format.asprintf "%a  bound=[%s] first=%s" Rule.pp r
        (String.concat "," bound)
        (Option.fold ~none:"-" ~some:string_of_int first))
    sip_case_gen

(* Filters meet bound variables: a negation or comparison is reached only
   once ground (one ground side suffices for [=], which binds the other). *)
let filters_bound bound ordered =
  let ground bound = function
    | Term.Const _ -> true
    | Term.Var v -> List.mem v bound
  in
  let rec go bound = function
    | [] -> true
    | Literal.Pos a :: rest -> go (Atom.var_set a @ bound) rest
    | Literal.Neg a :: rest ->
      List.for_all (fun v -> List.mem v bound) (Atom.var_set a) && go bound rest
    | Literal.Cmp (Literal.Eq, t1, t2) :: rest ->
      (ground bound t1 || ground bound t2)
      && go (Term.vars t1 @ Term.vars t2 @ bound) rest
    | Literal.Cmp (_, t1, t2) :: rest ->
      ground bound t1 && ground bound t2 && go bound rest
  in
  go bound ordered

let prop_sips_order strategy =
  QCheck.Test.make ~count:300
    ~name:
      (Printf.sprintf "order: permutation, first, bound filters (%s)"
         (Sips.strategy_name strategy))
    arb_sip_case
    (fun (r, bound, first) ->
      QCheck.assume (Result.is_ok (Safety.range_restricted r));
      let body = Rule.body r in
      let ordered =
        Sips.order ?first ~bound:(fun v -> List.mem v bound) strategy body
      in
      let permutation =
        List.sort compare (positions ordered)
        = List.init (List.length body) Fun.id
        && List.for_all
             (fun (i, lit) -> Literal.equal lit (List.nth body i))
             ordered
      in
      let first_first =
        match first with
        | None -> true
        | Some d -> List.hd (positions ordered) = d
      in
      (* under Ltr the positive literals after [first] keep their order *)
      let written_order =
        match strategy with
        | Sips.Cost -> true
        | Sips.Ltr ->
          let pos =
            List.filter_map
              (fun (i, lit) ->
                if Literal.is_positive lit && Some i <> first then Some i
                else None)
              ordered
          in
          pos = List.sort compare pos
      in
      permutation && first_first
      && filters_bound bound (literals ordered)
      && written_order)

let prop_cdi_order =
  QCheck.Test.make ~count:300
    ~name:"cdi_order: identity on cdi rules, cdi on range-restricted ones"
    arb_sip_case
    (fun (r, _, _) ->
      let r' = Safety.cdi_order r in
      Result.is_ok (Safety.cdi r')
      && (Result.is_error (Safety.cdi r) || r' == r))

let suite =
  [ ( "analysis:depgraph",
      [ Alcotest.test_case "edges" `Quick test_depgraph_edges;
        Alcotest.test_case "depends_on" `Quick test_depgraph_depends_on;
        Alcotest.test_case "scc order" `Quick test_depgraph_sccs_order
      ] );
    ( "analysis:stratify",
      [ Alcotest.test_case "positive stratifies" `Quick test_stratified_positive;
        Alcotest.test_case "layered strata" `Quick test_stratified_layers;
        Alcotest.test_case "win-move rejected" `Quick test_not_stratified_winmove;
        Alcotest.test_case "rules per stratum" `Quick test_rules_of_stratum;
        Alcotest.test_case "odd/even locally stratified" `Quick
          test_locally_stratified_odd;
        Alcotest.test_case "self negative dependency" `Quick
          test_not_locally_stratified;
        Alcotest.test_case "figure 1" `Quick test_locally_stratified_bry_example;
        Alcotest.test_case "ground size guard" `Quick test_ground_too_large;
        Alcotest.test_case "active domain" `Quick test_active_domain
      ] );
    ( "analysis:loose",
      [ Alcotest.test_case "stratified is loose" `Quick test_loose_accepts_stratified;
        Alcotest.test_case "win-move not loose" `Quick test_loose_rejects_winmove;
        Alcotest.test_case "constant-guarded loose" `Quick
          test_loose_accepts_bry_example;
        Alcotest.test_case "figure 1 not loose" `Quick test_loose_rejects_figure1;
        Alcotest.test_case "two-rule cycles" `Quick test_loose_two_rule_cycle;
        Alcotest.test_case "loose => consistent" `Quick
          test_loose_implies_constructive_consistency
      ] );
    ( "analysis:loose-properties",
      List.map QCheck_alcotest.to_alcotest
        [ prop_loose_constant_guarded_consistent ] );
    ( "analysis:safety",
      [ Alcotest.test_case "range restricted ok" `Quick test_range_restricted_ok;
        Alcotest.test_case "unbound head var" `Quick
          test_range_restricted_head_unbound;
        Alcotest.test_case "unbound negated var" `Quick
          test_range_restricted_negative_unbound;
        Alcotest.test_case "= propagation" `Quick
          test_range_restricted_eq_propagation;
        Alcotest.test_case "cdi order sensitivity" `Quick test_cdi_order_sensitivity;
        Alcotest.test_case "reorder for cdi" `Quick test_cdi_order_repair;
        Alcotest.test_case "program check" `Quick test_check_program_collects_errors
      ] );
    ( "analysis:sips",
      [ Alcotest.test_case "ltr keeps order" `Quick test_sips_ltr_keeps_order;
        Alcotest.test_case "postpones negation" `Quick test_sips_postpones_negation;
        Alcotest.test_case "cost prefers bound" `Quick
          test_sips_cost_prefers_bound;
        Alcotest.test_case "flushes comparisons" `Quick
          test_sips_flushes_ready_comparisons;
        Alcotest.test_case "first goes first" `Quick test_sips_first_goes_first
      ]
      @ List.map QCheck_alcotest.to_alcotest
          [ prop_sips_order Sips.Ltr; prop_sips_order Sips.Cost; prop_cdi_order ]
    )
  ]

(* Proof-tree extraction tests. *)

open Datalog_ast
module P = Datalog_engine.Provenance
module W = Alexander.Workloads

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let prog = Datalog_parser.Parser.program_of_string
let atom = Datalog_parser.Parser.atom_of_string

(* [P.explain] for programs it must accept: an [Error] fails the test. *)
let explain program a =
  match P.explain program a with
  | Ok proof -> proof
  | Error msg -> Alcotest.failf "explain %a: %s" Atom.pp a msg

(* the model [run] answers from: bodies in the order they are evaluated *)
let saturated_db program =
  match Datalog_engine.Stratified.run (Alexander.Preprocess.reorder_bodies program) with
  | Ok outcome -> outcome.Datalog_engine.Stratified.db
  | Error msg -> Alcotest.fail msg

let test_fact_proof () =
  let program = W.ancestor_chain 5 in
    match explain program (atom "edge(2, 3)") with
  | Some (P.Fact a) -> check tbool "fact node" true (Atom.equal a (atom "edge(2, 3)"))
  | Some _ -> Alcotest.fail "expected a fact leaf"
  | None -> Alcotest.fail "edge(2,3) is a fact"

let test_derived_proof_depth () =
  let program = W.ancestor_chain 6 in
    (* anc(0, 4) needs the recursive rule 3 times + base: proof height 5,
     counting the edge facts at each step as leaves *)
  match explain program (atom "anc(0, 4)") with
  | None -> Alcotest.fail "derivable"
  | Some proof ->
    check tbool "conclusion correct" true
      (Atom.equal (P.conclusion proof) (atom "anc(0, 4)"));
    check tint "proof height" 5 (P.depth proof);
    (* 4 rule applications + 4 edge facts *)
    check tint "proof size" 8 (P.size proof)

let test_proof_is_well_founded_on_cycles () =
  let program =
    Program.make ~facts:(W.cycle ~pred:"edge" 4) (W.ancestor_rules ())
  in
    (* anc(0, 0) goes all the way around the cycle; the proof must not be
     circular (each anc atom proved from strictly smaller subproofs) *)
  match explain program (atom "anc(0, 0)") with
  | None -> Alcotest.fail "derivable"
  | Some proof ->
    let rec assert_no_repeat seen proof =
      match proof with
      | P.Fact _ -> ()
      | P.Derived { conclusion; premises; _ } ->
        check tbool "no atom repeats on a path" false
          (List.exists (Atom.equal conclusion) seen);
        List.iter
          (fun premise ->
            match premise with
            | P.Proved sub -> assert_no_repeat (conclusion :: seen) sub
            | P.Absent _ | P.Holds _ -> ())
          premises
    in
    assert_no_repeat [] proof

let test_negative_premise () =
  let program =
    prog
      "lonely(X) :- node(X), not linked(X). linked(X) :- edge(X, Y).\n\
       node(1). node(2). edge(1, 2)."
  in
    match explain program (atom "lonely(2)") with
  | None -> Alcotest.fail "derivable"
  | Some (P.Derived { premises; _ }) ->
    check tbool "has an Absent premise" true
      (List.exists
         (function P.Absent a -> Atom.equal a (atom "linked(2)") | _ -> false)
         premises)
  | Some (P.Fact _) -> Alcotest.fail "not a fact"

let test_comparison_premise () =
  let program = prog "big(X) :- size(X, N), N >= 10. size(a, 12). size(b, 3)." in
    (match explain program (atom "big(a)") with
  | Some (P.Derived { premises; _ }) ->
    check tbool "has a Holds premise" true
      (List.exists (function P.Holds _ -> true | _ -> false) premises)
  | _ -> Alcotest.fail "derivable");
  check tbool "underivable atom unexplained" true
    (explain program (atom "big(b)") = None)

let test_not_in_model () =
  let program = W.ancestor_chain 4 in
    check tbool "absent atom has no proof" true
    (explain program (atom "anc(3, 0)") = None)

let test_proofs_exist_for_every_derived_fact () =
  let program = W.same_generation ~layers:3 ~width:3 in
  let db = saturated_db program in
  let sg = Pred.make "sg" 2 in
  List.iter
    (fun t ->
      let a = Datalog_storage.Tuple.to_atom sg t in
      match explain program a with
      | Some proof ->
        check tbool
          (Format.asprintf "proof concludes %a" Atom.pp a)
          true
          (Atom.equal (P.conclusion proof) a)
      | None -> Alcotest.failf "no proof for %a" Atom.pp a)
    (Datalog_storage.Database.tuples db sg)

(* A proof higher than [max_depth] is an [Error] naming the limit, not a
   "not in the model" verdict. *)
let test_max_depth_exceeded () =
  let program = W.ancestor_chain 6 in
  (match P.explain ~max_depth:3 program (atom "anc(0, 4)") with
  | Error msg ->
    check tbool "names the limit" true
      (String.ends_with ~suffix:" 3" msg)
  | Ok _ -> Alcotest.fail "a height-5 proof exceeds max_depth 3");
  check tbool "height 5 fits max_depth 5" true
    (Result.is_ok (P.explain ~max_depth:5 program (atom "anc(0, 4)")))

let test_rejected_programs () =
  let rejected text goal =
    match P.explain (prog text) (atom goal) with
    | Error _ -> true
    | Ok _ -> false
  in
  check tbool "unlimited variable in a negative literal" true
    (rejected "p(X) :- q(X), not r(Y). q(1)." "p(1)");
  check tbool "unlimited head variable" true
    (rejected "p(X, Y) :- q(X). q(1)." "p(1, 2)");
  check tbool "not stratified" true
    (rejected
       "win(X) :- move(X, Y), not win(Y).\n\
        move(1, 2). move(2, 3). move(3, 1). move(3, 4)."
       "win(2)")

(* The proof checker.  A proof is valid against the saturated model [db]
   of [program] when its root is in the model and, at every node:
   - a [Fact] leaf is a fact of the program;
   - a [Derived] node cites a rule of the program, its substitution maps
     the rule head to the conclusion, and its premises match the
     substituted body literal for literal: a [Proved] premise concludes
     the positive atom, which is in the model; an [Absent] atom is the
     negated atom, which is not; a [Holds] comparison is the ground
     comparison, which evaluates true;
   - no atom repeats on a root-to-leaf path. *)
let check_proof program db proof =
  let in_model a = Datalog_storage.Database.mem_atom db a in
  let given = Program.facts program in
  let bad fmt = Format.kasprintf (fun msg -> Error msg) fmt in
  let ( let* ) = Result.bind in
  let rec node path proof =
    let c = P.conclusion proof in
    if List.exists (Atom.equal c) path then
      bad "%a repeats on a root-to-leaf path" Atom.pp c
    else
      match proof with
      | P.Fact a ->
        if List.exists (Atom.equal a) given then Ok ()
        else bad "%a is a [fact] leaf but not a fact of the program" Atom.pp a
      | P.Derived { conclusion; rule; subst; premises } ->
        let head = Subst.apply_atom subst (Rule.head rule) in
        if not (List.exists (Rule.equal rule) (Program.rules program)) then
          bad "%a is not a rule of the program" Rule.pp rule
        else if not (Atom.equal head conclusion) then
          bad "head %a of %a is not the conclusion %a" Atom.pp head Rule.pp
            rule Atom.pp conclusion
        else if List.length premises <> List.length (Rule.body rule) then
          bad "%a: %d premises for %d body literals" Atom.pp conclusion
            (List.length premises)
            (List.length (Rule.body rule))
        else
          List.fold_left2
            (fun acc lit premise ->
              let* () = acc in
              check_premise (conclusion :: path)
                (Subst.apply_literal subst lit)
                premise)
            (Ok ()) (Rule.body rule) premises
  and check_premise path lit premise =
    match lit, premise with
    | Literal.Pos a, P.Proved sub ->
      if not (Atom.equal (P.conclusion sub) a) then
        bad "premise %a proves %a" Atom.pp a Atom.pp (P.conclusion sub)
      else if not (in_model a) then bad "premise %a not in the model" Atom.pp a
      else node path sub
    | Literal.Neg a, P.Absent b ->
      if not (Atom.equal a b && Atom.is_ground a) then
        bad "absent premise %a for literal not %a" Atom.pp b Atom.pp a
      else if in_model a then bad "absent premise %a is in the model" Atom.pp a
      else Ok ()
    | Literal.Cmp (op, Term.Const v1, Term.Const v2), P.Holds held ->
      if not (Literal.equal lit held) then
        bad "held premise %a for literal %a" Literal.pp held Literal.pp lit
      else if not (Literal.eval_cmp op v1 v2) then
        bad "comparison %a is false" Literal.pp lit
      else Ok ()
    | _, _ -> bad "premise does not match the literal %a" Literal.pp lit
  in
  if in_model (P.conclusion proof) then node [] proof
  else bad "root %a not in the model" Atom.pp (P.conclusion proof)

(* Explain [a], a fact of [program]'s model [db], and check the proof:
   the failure, if any. *)
let bad_proof program db a =
  match P.explain program a with
  | Error msg -> Some (Format.asprintf "explain %a: %s" Atom.pp a msg)
  | Ok None -> Some (Format.asprintf "no proof for %a" Atom.pp a)
  | Ok (Some proof) when not (Atom.equal (P.conclusion proof) a) ->
    Some
      (Format.asprintf "proof of %a concludes %a" Atom.pp a Atom.pp
         (P.conclusion proof))
  | Ok (Some proof) -> (
    match check_proof program db proof with
    | Ok () -> None
    | Error msg -> Some (Format.asprintf "bad proof of %a: %s" Atom.pp a msg))

(* Explain every derived fact of [program] and check each proof: the
   first failure, if any. *)
let first_bad_proof program =
  let db = saturated_db program in
  List.find_map
    (fun pred ->
      List.find_map
        (fun t -> bad_proof program db (Datalog_storage.Tuple.to_atom pred t))
        (Datalog_storage.Database.tuples db pred))
    (Gen.idb_preds program)

let all_proofs_check program =
  match first_bad_proof program with
  | None -> true
  | Some msg -> QCheck.Test.fail_report msg

let prop_every_fact_explainable =
  QCheck.Test.make ~name:"every derived fact has a well-founded proof"
    ~count:40 Gen.arb_positive_program all_proofs_check

let prop_stratified_proofs_check =
  QCheck.Test.make
    ~name:"every derived fact of a stratified program has a checked proof"
    ~count:40 Gen.arb_stratified_program all_proofs_check

(* Semi-naive rounds read facts the same round inserted: here [q(1)] and
   [p(1)] are both derived in the first round, [p(1)] from [q(1)].  A
   round-based "premises come from strictly earlier rounds" test would
   reject the only proof. *)
let test_same_round_premise () =
  let program = prog "q(X) :- e(X). p(X) :- q(X). e(1)." in
  let proof =
    match explain program (atom "p(1)") with
    | Some proof -> proof
    | None -> Alcotest.fail "p(1) is derivable"
  in
  (match check_proof program (saturated_db program) proof with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  check tint "proof height" 3 (P.depth proof)

(* A negation written before the literal that binds its variable is
   evaluated after it, as [run] evaluates it; the proof cites the rule
   as written, premises in its written order. *)
let test_negation_before_binding () =
  let program = prog "p(X) :- not r(X), q(X). q(1). q(2). r(2)." in
  (match first_bad_proof program with
  | None -> ()
  | Some msg -> Alcotest.fail msg);
  (match explain program (atom "p(1)") with
  | Some (P.Derived { premises = [ P.Absent _; P.Proved _ ]; _ }) -> ()
  | _ -> Alcotest.fail "p(1): not r(1), then q(1)");
  check tbool "p(2) is not derivable" true (explain program (atom "p(2)") = None)

let test_mutual_recursion_proofs () =
  let program =
    prog
      "a(X, Y) :- e(X, Y). a(X, Y) :- b(X, Z), e(Z, Y). b(X, Y) :- a(X, Y).\n\
       e(1, 2). e(2, 3). e(3, 1). e(3, 4)."
  in
  match first_bad_proof program with
  | None -> ()
  | Some msg -> Alcotest.fail msg

(* Every ground answer of every query of the stratified sample programs
   has a proof the checker accepts.  explosive.dl is left out: its model
   (~13 million q facts) is the resource governor's workload. *)
let test_sample_program_proofs () =
  let dir = "../examples/programs" in
  Sys.readdir dir |> Array.to_list |> List.sort String.compare
  |> List.filter (fun f ->
         Filename.check_suffix f ".dl" && not (String.equal f "explosive.dl"))
  |> List.iter (fun file ->
         match Datalog_parser.Parser.parse_file (Filename.concat dir file) with
         | Error msg -> Alcotest.fail msg
         | Ok { Datalog_parser.Parser.program; queries } ->
           if Datalog_analysis.Stratify.stratification program <> None then begin
             let db = saturated_db program in
             List.iter
               (fun q ->
                 let answers =
                   List.filter
                     (Datalog_storage.Tuple.matches q)
                     (Datalog_storage.Database.tuples db (Atom.pred q))
                 in
                 check tbool (file ^ " has answers") true (answers <> []);
                 List.iter
                   (fun t ->
                     let a = Datalog_storage.Tuple.to_atom (Atom.pred q) t in
                     Option.iter
                       (fun msg -> Alcotest.failf "%s: %s" file msg)
                       (bad_proof program db a))
                   answers)
               queries
           end)

let suite =
  [ ( "provenance",
      [ Alcotest.test_case "fact leaf" `Quick test_fact_proof;
        Alcotest.test_case "derived proof" `Quick test_derived_proof_depth;
        Alcotest.test_case "well-founded on cycles" `Quick
          test_proof_is_well_founded_on_cycles;
        Alcotest.test_case "negative premise" `Quick test_negative_premise;
        Alcotest.test_case "comparison premise" `Quick test_comparison_premise;
        Alcotest.test_case "absent atom" `Quick test_not_in_model;
        Alcotest.test_case "all derived facts" `Quick
          test_proofs_exist_for_every_derived_fact;
        Alcotest.test_case "same-round premise" `Quick test_same_round_premise;
        Alcotest.test_case "negation before its binding literal" `Quick
          test_negation_before_binding;
        Alcotest.test_case "mutual recursion" `Quick
          test_mutual_recursion_proofs;
        Alcotest.test_case "max depth exceeded" `Quick test_max_depth_exceeded;
        Alcotest.test_case "rejected programs" `Quick test_rejected_programs;
        Alcotest.test_case "sample program proofs" `Quick
          test_sample_program_proofs
      ] );
    ( "provenance:properties",
      List.map QCheck_alcotest.to_alcotest
        [ prop_every_fact_explainable; prop_stratified_proofs_check ] )
  ]

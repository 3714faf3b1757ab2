(* Audit: quantified queries (Formula) and derivation trees (Provenance)
   over a compliance database.

   Run with:  dune exec examples/audit.exe *)

open Datalog_ast
module F = Alexander.Formula
module P = Datalog_engine.Provenance

let program_text =
  "% who approved what, and what each document requires\n\
   approved(alice, d1). approved(bob, d1).\n\
   approved(alice, d2).\n\
   approved(carol, d3). approved(dave, d3).\n\
   requires_two(d1). requires_two(d2). requires_two(d3).\n\
   document(d1). document(d2). document(d3). document(d4).\n\
   manager(alice). manager(carol).\n\
   \n\
   % a document is covered when a manager approved it\n\
   covered(D) :- approved(A, D), manager(A).\n\
   \n\
   % violations: a two-signature document with fewer than two approvers\n\
   second_signature(D) :- approved(A, D), approved(B, D), A != B.\n\
   violation(D) :- requires_two(D), not second_signature(D).\n"

let () =
  let program = Datalog_parser.Parser.program_of_string program_text in

  (* plain query *)
  let violations =
    Alexander.Solve.run_exn program
      (Datalog_parser.Parser.atom_of_string "violation(D)")
  in
  Format.printf "violations: %d@."
    (List.length violations.Alexander.Solve.answers);

  (* a quantified query: documents ALL of whose approvers are managers —
     forall A. approved(A, D) -> manager(A), ranged by document(D) *)
  let f =
    F.conj
      (F.atom (Datalog_parser.Parser.atom_of_string "document(D)"))
      (F.forall [ "A" ]
         (F.imp
            (F.atom (Datalog_parser.Parser.atom_of_string "approved(A, D)"))
            (F.atom (Datalog_parser.Parser.atom_of_string "manager(A)"))))
  in
  (match F.eval program f with
  | Ok (vars, tuples) ->
    Format.printf "@.forall-query %a  [free: %s]@." F.pp f
      (String.concat ", " vars);
    List.iter
      (fun t -> Format.printf "  %a@." Value.pp (Code.to_value t.(0)))
      tuples
  | Error msg -> Format.printf "rejected: %s@." msg);

  (* an unranged formula is rejected, not answered wrongly *)
  let bad = F.neg (F.atom (Datalog_parser.Parser.atom_of_string "manager(M)")) in
  (match F.eval program bad with
  | Error msg -> Format.printf "@.unsafe formula rejected:@.  %s@." msg
  | Ok _ -> assert false);

  (* explain a derived violation *)
  let goal = Datalog_parser.Parser.atom_of_string "covered(d3)" in
  (match P.explain program goal with
  | Ok (Some proof) ->
    Format.printf "@.why %a?@.%a@." Atom.pp goal P.pp proof
  | Ok None -> Format.printf "@.%a is not derivable@." Atom.pp goal
  | Error msg -> Format.printf "@.cannot explain %a: %s@." Atom.pp goal msg)

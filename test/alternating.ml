(* Van Gelder's alternating fixpoint: the differential oracle for the
   transformation-based well-founded engine ({!Datalog_engine.Wellfounded}).
   [S] is anti-monotone, so iterating [I := S(S(I))] from the empty set
   climbs to the well-founded true atoms, and one more [S] yields the
   possible ones.  Built only from the public [Fixpoint]/[Database] API. *)

open Datalog_ast
open Datalog_storage
open Datalog_engine

let db_subset a b =
  let ok = ref true in
  Database.iter
    (fun pred rel ->
      Relation.iter (fun t -> if not (Database.mem b pred t) then ok := false) rel)
    a;
  !ok

let db_equal a b = db_subset a b && db_subset b a

let run program =
  let counters = Counters.create () in
  let seed = Database.create () in
  List.iter (fun a -> ignore (Database.add_atom seed a)) (Program.facts program);
  let rules = Program.rules program in
  (* S(I): least fixpoint with negation decided against seed ∪ I. *)
  let s_operator i =
    let db = Database.copy seed in
    (* The negation oracle is frozen on [seed ∪ i]: it must not observe the
       facts derived during this very run (those live in [db] only).  EDB
       atoms are true in every candidate interpretation, so testing the
       seed directly is sound and avoids deriving junk in the first
       over-approximation. *)
    let neg pred tuple =
      not (Database.mem seed pred tuple || Database.mem i pred tuple)
    in
    Fixpoint.seminaive counters ~db ~neg rules;
    db
  in
  let rec iterate current rounds =
    let over = s_operator current in
    let under = s_operator over in
    if db_equal under current then (current, over, rounds + 1)
    else iterate under (rounds + 1)
  in
  let true_set, possible, rounds = iterate (Database.create ()) 0 in
  let true_db = Database.copy seed in
  Database.iter
    (fun pred rel ->
      Relation.iter (fun t -> ignore (Database.add true_db pred t)) rel)
    true_set;
  let undefined =
    Database.preds possible
    |> List.concat_map (fun pred ->
           Database.tuples possible pred
           |> List.filter_map (fun t ->
                  if Database.mem true_db pred t then None
                  else Some (Tuple.to_atom pred t)))
    |> List.sort Atom.compare
  in
  { Wellfounded.true_db; undefined; rounds; counters; status = Limits.Complete }

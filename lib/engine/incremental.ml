open Datalog_ast
open Datalog_storage

let ensure_positive program =
  if List.exists (fun r -> Rule.negative_body r <> []) (Program.rules program)
  then
    Error
      "incremental maintenance requires a positive program (negation can \
       retract under additions); recompute instead"
  else Ok ()

(* Per rule, the delta-readable positions with their appliers (compiled
   once per maintenance call, not once per propagation round). *)
let delta_apps cnt ~guard ~profile ~neg plan ~card rules =
  List.map
    (fun rule ->
      let apps =
        List.mapi (fun i lit -> (i, lit)) (Rule.body rule)
        |> List.filter_map (fun (i, lit) ->
               match lit with
               | Literal.Pos a ->
                 Some
                   ( i,
                     Atom.pred a,
                     Fixpoint.applier cnt ~guard ~profile ~neg plan ~card
                       ~delta_pos:i rule )
               | Literal.Neg _ | Literal.Cmp _ -> None)
      in
      (rule, apps))
    rules

(* Delta-driven rounds to quiescence: fire every rule once per body
   position whose predicate has tuples in the delta, that position
   reading the delta and the rest the full [db].  [emit] inserts into
   [into]; the next delta is the slice of [into] the round inserted. *)
let delta_rounds cnt guard profile rule_apps ~db ~into delta emit =
  let current = ref delta in
  while Database.total_facts !current > 0 do
    cnt.Counters.iterations <- cnt.Counters.iterations + 1;
    Limits.check_round guard;
    let marks = Database.marks into in
    let cur = !current in
    Profile.with_round profile cnt (fun () ->
        List.iter
          (fun (rule, apps) ->
            Profile.with_rule profile cnt rule @@ fun () ->
            List.iter
              (fun (i, apred, app) ->
                if Database.cardinal cur apred > 0 then
                  let rel_of j pred =
                    Database.find (if j = i then cur else db) pred
                  in
                  app ~rel_of emit)
              apps)
          rule_apps);
    current := Database.since into marks
  done

(* Propagate an addition: consequences go into [db] itself. *)
let propagate cnt guard profile plan program db delta =
  let inserted = ref 0 in
  let rule_apps =
    delta_apps cnt ~guard ~profile
      ~neg:(fun pred t -> not (Database.mem db pred t))
      plan ~card:(Database.cardinal db) (Program.rules program)
  in
  delta_rounds cnt guard profile rule_apps ~db ~into:db delta
    (fun pred tuple ->
      if Database.add db pred tuple then begin
        incr inserted;
        cnt.Counters.facts_derived <- cnt.Counters.facts_derived + 1;
        Profile.derived profile pred;
        if Limits.is_active guard then
          Limits.check_relation guard (Database.rel db pred)
      end);
  !inserted

let exhausted_error reason =
  Error
    (Printf.sprintf
       "incremental maintenance exhausted its budget (%s); the database \
        was rolled back to its pre-call state - raise the budget and retry, \
        or recompute from the program"
       (Limits.reason_name reason))

(* Exhaustion mid-propagation would leave [db] half-maintained — no
   longer equal to the recomputed database — so both operations are
   transactional: back the database up before touching it and reinstall
   the backup if the budget runs out.  The backup is only taken when the
   limits can actually fire; the common ungoverned path pays nothing. *)
let with_rollback limits db f =
  if Limits.is_none limits then f ()
  else begin
    let backup = Database.copy db in
    match f () with
    | r -> r
    | exception Limits.Out_of_budget reason ->
      Database.assign db ~from:backup;
      exhausted_error reason
  end

(* Which predicates did a maintenance call touch?  Both operations are
   monotone in one direction (additions only grow relations, DRed's net
   effect only shrinks them), so comparing per-relation cardinalities
   around the call identifies exactly the changed predicates — without
   threading a hook through every insertion site. *)
let with_change_report on_change db f =
  match on_change with
  | None -> f ()
  | Some notify -> (
    let before =
      List.map (fun p -> (p, Database.cardinal db p)) (Database.preds db)
    in
    match f () with
    | Error _ as e -> e (* rolled back or refused: nothing changed *)
    | Ok _ as ok ->
      List.iter
        (fun pred ->
          let old_card =
            match List.assoc_opt pred before with None -> 0 | Some c -> c
          in
          if Database.cardinal db pred <> old_card then notify pred)
        (Database.preds db);
      ok)

let add_facts cnt ?(limits = Limits.none) ?(profile = Profile.none)
    ?(plan = Plan.config ()) ?on_change program db facts =
  match ensure_positive program with
  | Error _ as e -> e
  | Ok () ->
    with_change_report on_change db @@ fun () ->
    with_rollback limits db @@ fun () ->
    let guard = Limits.guard limits cnt in
    let marks = Database.marks db in
    let base_added = ref 0 in
    List.iter (fun a -> if Database.add_atom db a then incr base_added) facts;
    let derived =
      propagate cnt guard profile plan program db (Database.since db marks)
    in
    Ok (!base_added + derived)

let remove_facts cnt ?(limits = Limits.none) ?(profile = Profile.none)
    ?(plan = Plan.config ()) ?on_change program db facts =
  match ensure_positive program with
  | Error _ as e -> e
  | Ok () ->
    with_change_report on_change db @@ fun () ->
    with_rollback limits db @@ fun () ->
    let guard = Limits.guard limits cnt in
    let before = Database.total_facts db in
    (* Base facts of the program (and only the explicitly requested base
       deletions) are protected from over-deletion: the DRed re-derivation
       phase can only restore tuples that some rule derives. *)
    let protected = Database.create () in
    List.iter
      (fun a -> ignore (Database.add_atom protected a))
      (Program.facts program);
    List.iter (fun a -> ignore (Database.remove_atom protected a)) facts;
    (* Phase 1: over-delete.  Any head tuple one of whose derivations (in
       the PRE-deletion database) consumed a deleted tuple is marked. *)
    let deleted = Database.create () in
    let marks = Database.marks deleted in
    List.iter
      (fun a ->
        if Database.mem_atom db a then ignore (Database.add_atom deleted a))
      facts;
    let over_delete_apps =
      delta_apps cnt ~guard ~profile:Profile.none
        ~neg:(fun pred t -> not (Database.mem db pred t))
        plan ~card:(Database.cardinal db) (Program.rules program)
    in
    delta_rounds cnt guard Profile.none over_delete_apps ~db ~into:deleted
      (Database.since deleted marks) (fun pred tuple ->
        if Database.mem db pred tuple && not (Database.mem protected pred tuple)
        then ignore (Database.add deleted pred tuple));
    (* Phase 2: physically remove the over-deleted tuples. *)
    Database.iter
      (fun pred rel ->
        Relation.iter (fun t -> ignore (Database.remove db pred t)) rel)
      deleted;
    (* Phase 3: re-derive — anything with an alternative derivation from
       the remaining facts comes back (semi-naive to fixpoint). *)
    Fixpoint.seminaive cnt ~guard ~profile ~plan ~db
      ~neg:(fun pred t -> not (Database.mem db pred t))
      (Program.rules program);
    Ok (before - Database.total_facts db)

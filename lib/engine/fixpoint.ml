open Datalog_ast
open Datalog_storage

(* One rule application through a compiled plan: the rule is compiled
   once (against [card] at the call) and the result runs per round. *)
let applier cnt ~guard ~profile ~neg plan ~card ?delta_pos rule =
  let p = Plan.compile plan ~card ?delta_pos rule in
  fun ~rel_of emit -> Plan.run p cnt ~guard ~profile ~rel_of ~neg emit

(* Insert a derived fact into [db] under [pred] (the companion when the
   subsumption filter dropped it), count it as derived or subsumed, and
   hand it to [on_new] if it was new.  [dropped] is an argument rather
   than half of a returned pair, so the per-fact path allocates nothing. *)
let store cnt ~guard ~profile ~db ~on_new ~dropped pred tuple =
  if Database.add db pred tuple then begin
    if dropped then begin
      cnt.Counters.subsumed <- cnt.Counters.subsumed + 1;
      Profile.subsumed profile pred
    end
    else begin
      cnt.Counters.facts_derived <- cnt.Counters.facts_derived + 1;
      Profile.derived profile pred
    end;
    if Limits.is_active guard then
      Limits.check_relation guard (Database.rel db pred);
    on_new pred tuple
  end

(* The one emit path of every fixpoint round: route a derived fact
   through the subsumption filter, then [store] it. *)
let emit cnt ~guard ~profile ~subsume ~db ~on_new pred tuple =
  match Subsume.drop subsume db pred tuple with
  | Some companion ->
    store cnt ~guard ~profile ~db ~on_new ~dropped:true companion tuple
  | None -> store cnt ~guard ~profile ~db ~on_new ~dropped:false pred tuple

let naive cnt ?(guard = Limits.no_guard) ?(profile = Profile.none)
    ?(ckpt = Checkpoint.none) ?(plan = Plan.config ())
    ?(subsume = Subsume.none) ~db ~neg rules =
  let rel_of = Eval.db_rel_of db in
  let card pred = Database.cardinal db pred in
  let apps =
    List.map
      (fun rule ->
        (rule, applier cnt ~guard ~profile ~neg plan ~card rule))
      rules
  in
  let changed = ref true in
  let on_new _ _ = changed := true in
  while !changed do
    changed := false;
    match
      cnt.Counters.iterations <- cnt.Counters.iterations + 1;
      Limits.check_round guard;
      Profile.with_round profile cnt (fun () ->
          List.iter
            (fun (rule, app) ->
              Profile.with_rule profile cnt rule (fun () ->
                  app ~rel_of (emit cnt ~guard ~profile ~subsume ~db ~on_new)))
            apps)
    with
    | () -> Checkpoint.on_round ckpt ~db ~delta:None
    | exception (Limits.Out_of_budget _ as e) ->
      (* naive rounds re-evaluate everything, so the saved database alone
         is a resumable state *)
      Checkpoint.on_interrupt ckpt ~db ~delta:None;
      raise e
  done

let head_preds rules =
  List.fold_left
    (fun acc r -> Pred.Set.add (Atom.pred (Rule.head r)) acc)
    Pred.Set.empty rules

(* Positions of positive body literals over recursive predicates. *)
let delta_positions recursive rule =
  List.mapi (fun i lit -> (i, lit)) (Rule.body rule)
  |> List.filter_map (fun (i, lit) ->
         match lit with
         | Literal.Pos a when Pred.Set.mem (Atom.pred a) recursive -> Some i
         | Literal.Pos _ | Literal.Neg _ | Literal.Cmp _ -> None)

let no_new _ _ = ()

let seminaive cnt ?(guard = Limits.no_guard) ?(profile = Profile.none)
    ?(ckpt = Checkpoint.none) ?(plan = Plan.config ())
    ?(subsume = Subsume.none) ?initial_delta ~db ~neg ?recursive rules =
  let recursive =
    match recursive with Some s -> s | None -> head_preds rules
  in
  (* companion relations are populated by the filter, not by rules, but
     the bridge rules join against them — drive those joins with deltas *)
  let recursive = Pred.Set.union recursive (Subsume.companions subsume) in
  let card pred = Database.cardinal db pred in
  let derive = emit cnt ~guard ~profile ~subsume ~db ~on_new:no_new in
  (* A round's delta is the slice of [db] the round inserted: [db] is
     insert-only while the loop runs, so a slice since the marks taken
     when the round started lists exactly the round's new facts, in the
     order they were derived. *)
  let delta =
    match initial_delta with
    | Some d ->
      (* warm start (resume): [db] is the state after some completed round
         and [d] the facts that round produced — skip the full first round *)
      ref d
    | None -> (
      (* First round: full evaluation; its delta is everything it added. *)
      let marks = Database.marks db in
      let rel_of = Eval.db_rel_of db in
      let apps =
        List.map
          (fun rule ->
            (rule, applier cnt ~guard ~profile ~neg plan ~card rule))
          rules
      in
      match
        cnt.Counters.iterations <- cnt.Counters.iterations + 1;
        Limits.check_round guard;
        Profile.with_round profile cnt (fun () ->
            List.iter
              (fun (rule, app) ->
                Profile.with_rule profile cnt rule (fun () ->
                    app ~rel_of derive))
              apps)
      with
      | () ->
        let d = Database.since db marks in
        Checkpoint.on_round ckpt ~db ~delta:(Some d);
        ref d
      | exception (Limits.Out_of_budget _ as e) ->
        (* not every rule has run against the full database yet, so no
           delta is trustworthy: force the resume to redo this round *)
        Checkpoint.on_interrupt ckpt ~db ~delta:None;
        raise e)
  in
  let delta_rules =
    List.filter_map
      (fun rule ->
        match delta_positions recursive rule with
        | [] -> None
        | positions ->
          let apps =
            List.map
              (fun delta_pos ->
                ( delta_pos,
                  applier cnt ~guard ~profile ~neg plan ~card ~delta_pos rule ))
              positions
          in
          Some (rule, apps))
      rules
  in
  while Database.total_facts !delta > 0 do
    let current = !delta in
    let marks = Database.marks db in
    (match
       cnt.Counters.iterations <- cnt.Counters.iterations + 1;
       Limits.check_round guard;
       Profile.with_round profile cnt (fun () ->
           List.iter
             (fun (rule, apps) ->
               Profile.with_rule profile cnt rule (fun () ->
                   List.iter
                     (fun (delta_pos, app) ->
                       let rel_of i pred =
                         if i = delta_pos then Database.find current pred
                         else Database.find db pred
                       in
                       app ~rel_of derive)
                     apps))
             delta_rules)
     with
    | () -> ()
    | exception (Limits.Out_of_budget _ as e) ->
      (* mid-round interrupt: the resumable delta is the round's input
         union its partial output — the interrupted round is then redone
         in full (soundly: derivation is monotone, and [db] already holds
         the partial output, so nothing is derived twice) *)
      if Checkpoint.is_active ckpt then begin
        let merged = Database.copy current in
        ignore (Database.union_into ~src:(Database.since db marks) ~dst:merged);
        Checkpoint.on_interrupt ckpt ~db ~delta:(Some merged)
      end;
      raise e);
    delta := Database.since db marks;
    Checkpoint.on_round ckpt ~db ~delta:(Some !delta)
  done

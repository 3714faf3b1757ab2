open Datalog_ast
open Datalog_storage
open Datalog_analysis

type outcome = {
  db : Database.t;
  counters : Counters.t;
  strata_count : int;
  status : Limits.status;
}

let run ?(limits = Limits.none) ?(profile = Profile.none)
    ?(checkpoint = Checkpoint.none) ?resume_from ?db ?(use_naive = false)
    ?plan ?(subsume = Subsume.none) ?on_new program =
  match Stratify.stratification program with
  | None ->
    Error
      (Format.asprintf "program is not stratified: %a"
         (Format.pp_print_list ~pp_sep:Format.pp_print_space Pred.pp)
         (Option.value ~default:[] (Stratify.negative_cycle program)))
  | Some strata ->
    let db =
      match db with
      | Some db -> db
      | None -> Database.create ()
    in
    List.iter (fun a -> ignore (Database.add_atom db a)) (Program.facts program);
    let counters = Counters.create () in
    let start_stratum, resume_delta =
      match resume_from with
      | None -> (0, None)
      | Some r ->
        (* strata below [r_stratum] were complete when the checkpoint was
           taken (the invariant of stratified evaluation), so resume
           adopts the replayed relations, skips those strata entirely, and
           warm-starts the saved one with its delta *)
        Checkpoint.adopt checkpoint r ~db ~counters;
        (r.Checkpoint.r_stratum, r.Checkpoint.r_delta)
    in
    Checkpoint.set_counters checkpoint counters;
    Checkpoint.set_evaluator checkpoint (if use_naive then "naive" else "seminaive");
    let guard = Limits.guard limits counters in
    let neg = Eval.closed_world_neg db in
    let strata_count = Array.length strata.Stratify.groups in
    let status =
      match
        for s = start_stratum to strata_count - 1 do
          match Stratify.rules_of_stratum program strata s with
          | [] -> ()
          | rules ->
            Checkpoint.set_stratum checkpoint s;
            let initial_delta =
              if s = start_stratum && not use_naive then resume_delta
              else None
            in
            Profile.with_stratum profile counters s (fun () ->
                (* [?plan] is passed per stratum: each stratum's rules are
                   compiled afresh against the cardinalities the lower
                   strata produced *)
                if use_naive then
                  Fixpoint.naive counters ~guard ~profile ~ckpt:checkpoint
                    ?plan ~subsume ?on_new ~db ~neg rules
                else
                  Fixpoint.seminaive counters ~guard ~profile
                    ~ckpt:checkpoint ?plan ~subsume ?on_new ?initial_delta
                    ~db ~neg rules)
        done
      with
      | () -> Limits.Complete
      | exception Limits.Out_of_budget reason -> Limits.Exhausted reason
    in
    Ok { db; counters; strata_count; status }

open Datalog_ast
open Datalog_storage
open Datalog_rewrite

type row = {
  source_pred : Pred.t;
  binding : string;
  calls_alexander : int;
  calls_magic : int;
  answers_alexander : int;
  answers_magic : int;
  calls_equal : bool;
  answers_equal : bool;
}

type cont_row = {
  rule_index : int;
  subgoal : int;
  cont_alexander : int;
  sup_idb : int;
  cont_equal : bool;
}

type outcome = {
  rows : row list;
  cont_rows : cont_row list;
  equivalent : bool;
  conts_equivalent : bool;
  answers_match_query : bool;
}

let ( let* ) r f = Result.bind r f

let tuples_set db pred_name arity =
  let pred = Pred.make pred_name arity in
  match Database.find db pred with
  | None -> Tuple.Set.empty
  | Some rel -> Relation.fold Tuple.Set.add rel Tuple.Set.empty

let check ?(sips = Datalog_analysis.Sips.Ltr) program query =
  (* subsumption off: with the filter on, dropped calls live in sub_
     companions, not in the call relations compared here *)
  let prepared = Solve.prepare program in
  let run strategy =
    Result.map_error Errors.message
      (Solve.run_prepared
         ~options:
           { Options.default with Options.strategy; sips; subsume = false }
         prepared query)
  in
  let* sup = run Options.Supplementary in
  let* supidb = run Options.Supplementary_idb in
  let* alex = run Options.Alexander in
  let answers_match_query = sup.Solve.answers = alex.Solve.answers in
  match sup.Solve.rewritten, supidb.Solve.rewritten, alex.Solve.rewritten with
  | Some _, Some rw_supidb, Some rw_alex ->
    let db_sup = sup.Solve.db
    and db_supidb = supidb.Solve.db
    and db_alex = alex.Solve.db in
    (* one row per reachable adorned predicate *)
    let adorned_preds =
      Registry.fold
        (fun p kind acc ->
          match kind with
          | Registry.Adorned (src, b) -> (p, src, b) :: acc
          | _ -> acc)
        rw_alex.Rewritten.registry []
      |> List.sort (fun (a, _, _) (b, _, _) -> Pred.compare a b)
    in
    let rows =
      List.map
        (fun (ap, src, b) ->
          let bound = Binding.bound_count b in
          let full = Pred.arity ap in
          let calls_magic = tuples_set db_sup ("m_" ^ Pred.name ap) bound in
          let calls_alexander =
            tuples_set db_alex ("call_" ^ Pred.name ap) bound
          in
          let answers_magic = tuples_set db_sup (Pred.name ap) full in
          let answers_alexander =
            tuples_set db_alex ("ans_" ^ Pred.name ap) full
          in
          { source_pred = src;
            binding = Binding.to_string b;
            calls_alexander = Tuple.Set.cardinal calls_alexander;
            calls_magic = Tuple.Set.cardinal calls_magic;
            answers_alexander = Tuple.Set.cardinal answers_alexander;
            answers_magic = Tuple.Set.cardinal answers_magic;
            calls_equal = Tuple.Set.equal calls_alexander calls_magic;
            answers_equal = Tuple.Set.equal answers_alexander answers_magic
          })
        adorned_preds
    in
    let equivalent =
      List.for_all (fun r -> r.calls_equal && r.answers_equal) rows
    in
    (* continuation-level comparison: Alexander's cont_r_j against the
       IDB-cut supplementary variant's supi_r_j — same carried variables
       by construction, so the relations must coincide tuple for tuple *)
    let cont_pairs =
      Registry.fold
        (fun p kind acc ->
          match kind with
          | Registry.Cont (r, j) -> ((r, j), `Cont p) :: acc
          | _ -> acc)
        rw_alex.Rewritten.registry
        (Registry.fold
           (fun p kind acc ->
             match kind with
             | Registry.SupIdb (r, j) -> ((r, j), `Sup p) :: acc
             | _ -> acc)
           rw_supidb.Rewritten.registry [])
    in
    let keys =
      List.sort_uniq compare (List.map fst cont_pairs)
    in
    let cont_rows =
      List.map
        (fun (r, j) ->
          let find tag =
            List.find_map
              (fun ((r', j'), entry) ->
                if r' = r && j' = j then
                  match entry, tag with
                  | `Cont p, `Cont -> Some p
                  | `Sup p, `Sup -> Some p
                  | _ -> None
                else None)
              cont_pairs
          in
          let set db = function
            | None -> Tuple.Set.empty
            | Some p -> tuples_set db (Pred.name p) (Pred.arity p)
          in
          let conts = set db_alex (find `Cont) in
          let sups = set db_supidb (find `Sup) in
          { rule_index = r;
            subgoal = j;
            cont_alexander = Tuple.Set.cardinal conts;
            sup_idb = Tuple.Set.cardinal sups;
            cont_equal = Tuple.Set.equal conts sups
          })
        keys
    in
    let conts_equivalent = List.for_all (fun c -> c.cont_equal) cont_rows in
    Ok { rows; cont_rows; equivalent; conts_equivalent; answers_match_query }
  | _ ->
    (* an extensional or unknown query is answered by lookup: no
       rewriting ran, so there is nothing to pair *)
    Ok
      { rows = [];
        cont_rows = [];
        equivalent = true;
        conts_equivalent = true;
        answers_match_query
      }

let pp_outcome ppf outcome =
  Format.fprintf ppf "%-16s %-6s %12s %12s %12s %12s@." "pred" "ad"
    "AT calls" "SM magic" "AT answers" "SM facts";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-16s %-6s %12d %12d %12d %12d %s@."
        (Pred.name r.source_pred) r.binding r.calls_alexander r.calls_magic
        r.answers_alexander r.answers_magic
        (if r.calls_equal && r.answers_equal then "=" else "DIFFER"))
    outcome.rows;
  (match outcome.cont_rows with
  | [] -> ()
  | conts ->
    Format.fprintf ppf "%-10s %-8s %12s %12s@." "rule" "subgoal" "AT cont"
      "SM-idb sup";
    List.iter
      (fun c ->
        Format.fprintf ppf "%-10d %-8d %12d %12d %s@." c.rule_index c.subgoal
          c.cont_alexander c.sup_idb
          (if c.cont_equal then "=" else "DIFFER"))
      conts);
  Format.fprintf ppf
    "equivalent: %b, continuations: %b, query answers match: %b@."
    outcome.equivalent outcome.conts_equivalent outcome.answers_match_query

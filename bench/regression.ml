(* Bench-regression gate: compare a freshly generated baseline against the
   committed BENCH_baseline.json, per workload x strategy cell.

   Usage:  dune exec bench/regression.exe -- BASELINE CANDIDATE
             [--tolerance PCT] [--alloc-tolerance PCT]

   The join-work counters (probes, scanned, firings, merge_steps,
   gallops) are deterministic for a given engine, so any growth is a real
   plan or engine change, not noise; wall times are reported but never
   gate.  A cell regresses when a counter exceeds its baseline by more
   than the tolerance (default 5%).  Counters absent from the baseline
   (older schemas) simply don't gate.  The per-cell minor-allocation
   gauge (minor_words, GC-reported) is close to deterministic but moves
   with compiler/runtime details, so it gets its own laxer tolerance
   (default 25%); baselines predating the gauge simply don't gate on it.

   Seki's theorem is gated too: in the candidate, every workload that
   runs both [alexander] and [supplementary-idb] must report the same
   value for each of the eight [totals] counters — the two rewritings
   are isomorphic under the call_/m_, ans_/plain, cont/supi renaming, so
   they do identical join work.

   Exit code 1 on any regression, 2 on unreadable/mismatched inputs. *)

module J = Datalog_engine.Json

let tolerance = ref 5.0
let alloc_tolerance = ref 25.0

let die code fmt = Printf.ksprintf (fun msg -> prerr_endline msg; exit code) fmt

let read_json path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg -> die 2 "cannot read %s: %s" path msg
  | text -> (
    match J.of_string text with
    | doc -> doc
    | exception J.Parse_error msg -> die 2 "cannot parse %s: %s" path msg)

let member_exn path name j =
  match J.member name j with
  | Some v -> v
  | None -> die 2 "%s: missing %S field" path name

let as_string path = function
  | J.String s -> s
  | _ -> die 2 "%s: expected a string" path

let as_int = function J.Int i -> Some i | _ -> None

let as_float = function
  | J.Float f -> Some f
  | J.Int i -> Some (float_of_int i)
  | _ -> None

let as_list path = function
  | J.List l -> l
  | _ -> die 2 "%s: expected a list" path

let gated = [ "probes"; "scanned"; "firings"; "merge_steps"; "gallops" ]

(* (workload, strategy) ->
   (counter name -> value) for the gated counters, plus the allocation
   gauge when the baseline carries it (schema 3+) *)
let cells path doc =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun workload ->
      let wname = as_string path (member_exn path "workload" workload) in
      List.iter
        (fun report ->
          let sname = as_string path (member_exn path "strategy" report) in
          let totals = member_exn path "totals" report in
          let counters =
            List.filter_map
              (fun c ->
                Option.map (fun v -> (c, v))
                  (Option.bind (J.member c totals) as_int))
              gated
          in
          let alloc = Option.bind (J.member "minor_words" report) as_float in
          Hashtbl.replace tbl (wname, sname) (counters, alloc))
        (as_list path (member_exn path "strategies" workload)))
    (as_list path (member_exn path "workloads" doc));
  tbl

let totals_names =
  [ "facts_derived"; "firings"; "probes"; "scanned"; "iterations";
    "merge_steps"; "gallops"; "subsumed" ]

(* The workloads whose [alexander] and [supplementary-idb] cells differ,
   with the first differing counter, and the number of workloads that
   run both. *)
let seki_mismatches path doc =
  List.fold_left
    (fun (bad, paired) workload ->
      let wname = as_string path (member_exn path "workload" workload) in
      let totals sname =
        List.find_map
          (fun report ->
            if as_string path (member_exn path "strategy" report) = sname then
              Some (member_exn path "totals" report)
            else None)
          (as_list path (member_exn path "strategies" workload))
      in
      match totals "alexander", totals "supplementary-idb" with
      | Some a, Some s -> (
        let differs c =
          Option.bind (J.member c a) as_int <> Option.bind (J.member c s) as_int
        in
        match List.find_opt differs totals_names with
        | Some c -> ((wname, c) :: bad, paired + 1)
        | None -> (bad, paired + 1))
      | _ -> (bad, paired))
    ([], 0)
    (as_list path (member_exn path "workloads" doc))

let () =
  let positional = ref [] in
  let rec parse_args = function
    | [] -> ()
    | "--tolerance" :: pct :: rest ->
      (match float_of_string_opt pct with
      | Some t when t >= 0. -> tolerance := t
      | _ -> die 2 "--tolerance expects a non-negative number");
      parse_args rest
    | "--alloc-tolerance" :: pct :: rest ->
      (match float_of_string_opt pct with
      | Some t when t >= 0. -> alloc_tolerance := t
      | _ -> die 2 "--alloc-tolerance expects a non-negative number");
      parse_args rest
    | a :: rest ->
      positional := a :: !positional;
      parse_args rest
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  let baseline_path, candidate_path =
    match List.rev !positional with
    | [ b; c ] -> (b, c)
    | _ ->
      die 2
        "usage: regression BASELINE CANDIDATE [--tolerance PCT] \
         [--alloc-tolerance PCT]"
  in
  let base = cells baseline_path (read_json baseline_path) in
  let cand_doc = read_json candidate_path in
  let cand = cells candidate_path cand_doc in
  let rows = ref [] in
  let regressions = ref 0 in
  Hashtbl.iter
    (fun (w, s) (base_counters, base_alloc) ->
      match Hashtbl.find_opt cand (w, s) with
      | None ->
        incr regressions;
        rows :=
          (([ w; s ] @ List.map (fun _ -> "-") gated) @ [ "-"; "MISSING" ])
          :: !rows
      | Some (cand_counters, cand_alloc) ->
        let deltas =
          List.map
            (fun (name, bv) ->
              match List.assoc_opt name cand_counters with
              | None -> (name, bv, -1, infinity)
              | Some cv ->
                let pct =
                  if bv = 0 then if cv = 0 then 0. else infinity
                  else 100. *. float_of_int (cv - bv) /. float_of_int bv
                in
                (name, bv, cv, pct))
            base_counters
        in
        let worst =
          List.fold_left (fun acc (_, _, _, p) -> Float.max acc p) neg_infinity
            deltas
        in
        (* the allocation gauge gates only when both sides carry it *)
        let alloc_cell, alloc_bad =
          match (base_alloc, cand_alloc) with
          | Some bv, Some cv when bv > 0. ->
            let pct = 100. *. (cv -. bv) /. bv in
            ( Printf.sprintf "%.2e->%.2e (%+.1f%%)" bv cv pct,
              pct > !alloc_tolerance )
          | _ -> ("-", false)
        in
        let bad = worst > !tolerance || alloc_bad in
        if bad then incr regressions;
        (* one column per gated counter; "-" when the baseline predates it *)
        let cell name =
          match List.find_opt (fun (n, _, _, _) -> n = name) deltas with
          | Some (_, bv, cv, pct) ->
            Printf.sprintf "%d->%d (%+.1f%%)" bv cv pct
          | None -> "-"
        in
        rows :=
          (([ w; s ] @ List.map cell gated)
          @ [ alloc_cell; (if bad then "REGRESSED" else "ok") ])
          :: !rows)
    base;
  let rows =
    List.sort compare !rows
  in
  let header = ([ "workload"; "strategy" ] @ gated) @ [ "minor words"; "verdict" ] in
  let ncols = List.length header in
  let widths = Array.make ncols 0 in
  List.iter
    (fun row ->
      List.iteri
        (fun i cell -> widths.(i) <- max widths.(i) (String.length cell))
        row)
    (header :: rows);
  let print_row row =
    List.iteri (fun i cell -> Printf.printf "| %-*s " widths.(i) cell) row;
    print_endline "|"
  in
  print_row header;
  print_row (List.map (fun w -> String.make w '-') (Array.to_list widths));
  List.iter print_row rows;
  let seki_bad, paired = seki_mismatches candidate_path cand_doc in
  List.iter
    (fun (w, c) ->
      Printf.printf "\nSeki: %s: alexander and supplementary-idb differ in %s\n"
        w c)
    (List.rev seki_bad);
  if !regressions > 0 || seki_bad <> [] then begin
    if !regressions > 0 then
      Printf.printf
        "\n%d cell(s) regressed beyond %.1f%% - investigate before merging\n"
        !regressions !tolerance;
    exit 1
  end
  else
    Printf.printf
      "\nall %d cells within %.1f%% of the committed baseline; alexander = \
       supplementary-idb on all %d totals of %d workload(s)\n"
      (List.length rows) !tolerance (List.length totals_names) paired

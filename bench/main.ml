(* Benchmark harness: regenerates every table (T1-T6) and figure (F1-F3)
   of EXPERIMENTS.md, then runs one Bechamel timing test per experiment.

   Run with:  dune exec bench/main.exe            (all experiments)
              dune exec bench/main.exe -- T1 F2   (a subset)
              dune exec bench/main.exe -- --no-bechamel
*)

open Datalog_ast
module O = Alexander.Options
module S = Alexander.Solve
module W = Alexander.Workloads
module E = Alexander.Equivalence
module C = Datalog_engine.Counters

let atom = Datalog_parser.Parser.atom_of_string

(* A wedged experiment must not hang the harness (or CI) forever: every
   evaluation in here runs under a generous wall-clock budget.  At normal
   workload sizes nothing comes close to it. *)
let bench_limits = Datalog_engine.Limits.make ~timeout_s:120. ()

(* ------------------------------------------------------------------ *)
(* Table printing *)

let csv_dir : string option ref = ref None

let csv_name_of_title title =
  (* "T1a: linear ancestor ..." -> "T1a" *)
  match String.index_opt title ':' with
  | Some i -> String.sub title 0 i
  | None -> String.map (fun c -> if c = ' ' then '_' else c) title

let write_csv ~title ~header rows =
  match !csv_dir with
  | None -> ()
  | Some dir ->
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let path = Filename.concat dir (csv_name_of_title title ^ ".csv") in
    Out_channel.with_open_text path (fun oc ->
        let emit row =
          Out_channel.output_string oc (String.concat "," row);
          Out_channel.output_char oc '\n'
        in
        emit header;
        List.iter emit rows)

let print_table ~title ~header rows =
  write_csv ~title ~header rows;
  let ncols = List.length header in
  let widths = Array.make ncols 0 in
  List.iter
    (fun row ->
      List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) row)
    (header :: rows);
  let line c =
    print_string "+";
    Array.iter
      (fun w ->
        print_string (String.make (w + 2) c);
        print_string "+")
      widths;
    print_newline ()
  in
  let print_row row =
    print_string "|";
    List.iteri
      (fun i cell -> Printf.printf " %-*s |" widths.(i) cell)
      row;
    print_newline ()
  in
  Printf.printf "\n== %s ==\n" title;
  line '-';
  print_row header;
  line '=';
  List.iter print_row rows;
  line '-'

let ms t = Printf.sprintf "%.3f" (t *. 1000.0)
let itoa = string_of_int

(* ------------------------------------------------------------------ *)
(* Shared runners *)

let run_strategy ?(negation = O.Auto) ?(profile = false)
    ?(checkpoint = Datalog_engine.Checkpoint.none) ?(compile = true)
    ?(merge = true) ?(subsume = true) ?(sips = Datalog_rewrite.Sips.Left_to_right)
    ?(limits = bench_limits) strategy program query =
  let options =
    { O.strategy;
      negation;
      sips;
      limits;
      profile;
      trace = None;
      checkpoint;
      compile;
      merge;
      subsume;
      explain = false
    }
  in
  S.run_exn ~options program query

let strategy_row strategy report =
  let c = report.S.counters in
  [ O.strategy_name strategy;
    itoa (List.length report.S.answers);
    itoa c.C.facts_derived;
    itoa c.C.firings;
    itoa c.C.probes;
    itoa c.C.scanned;
    ms report.S.wall_time_s
  ]

let strategies_table title program query =
  let rows =
    List.map
      (fun strategy -> strategy_row strategy (run_strategy strategy program query))
      O.all_strategies
  in
  print_table ~title
    ~header:[ "strategy"; "answers"; "facts"; "firings"; "probes"; "scanned"; "time ms" ]
    rows

(* ------------------------------------------------------------------ *)
(* T1: bound ancestor queries, chain and tree *)

let t1 () =
  let chain = W.ancestor_chain 400 in
  strategies_table
    "T1a: linear ancestor, chain n=400, query anc(300, X) (bound-first)"
    chain (atom "anc(300, X)");
  let tree = W.ancestor_tree ~depth:8 ~fanout:2 in
  strategies_table
    "T1b: linear ancestor, complete binary tree depth 8, query anc(3, X)"
    tree (atom "anc(3, X)");
  print_endline
    "Expectation: the magic family touches only the part of the relation\n\
     reachable from the bound constant; raw naive/semi-naive saturate the\n\
     whole ancestor relation (facts column)."

(* ------------------------------------------------------------------ *)
(* T2: same generation *)

let t2 () =
  let program = W.same_generation ~layers:8 ~width:12 in
  strategies_table
    "T2: same-generation, cylinder 8x12 (528 EDB facts), query sg(0, X)"
    program (atom "sg(0, X)");
  print_endline
    "Expectation: as in the Bancilhon-Ramakrishnan study, magic-style\n\
     rewriting wins by restricting sg to generations of node 0."

(* ------------------------------------------------------------------ *)
(* T3: the Seki equivalence (headline) *)

let t3 () =
  let cases =
    [ ("anc chain n=200, anc(50,X)", W.ancestor_chain 200, "anc(50, X)");
      ( "anc tree d=7 f=2, anc(1,X)",
        W.ancestor_tree ~depth:7 ~fanout:2,
        "anc(1, X)" );
      ( "same gen 6x8, sg(0,X)",
        W.same_generation ~layers:6 ~width:8,
        "sg(0, X)" );
      ( "reverse sg 5x6, rsg(0,X)",
        W.reverse_same_generation ~layers:5 ~width:6,
        "rsg(0, X)" );
      ( "nonlinear tc chain n=60, tc(10,X)",
        Program.make ~facts:(W.chain ~pred:"edge" 60) (W.tc_nonlinear_rules ()),
        "tc(10, X)" );
      ( "nonlinear tc cycle n=30, tc(0,X)",
        Program.make ~facts:(W.cycle ~pred:"edge" 30) (W.tc_nonlinear_rules ()),
        "tc(0, X)" )
    ]
  in
  let rows =
    List.concat_map
      (fun (name, program, q) ->
        match E.check program (atom q) with
        | Error msg -> [ [ name; "ERROR: " ^ msg; ""; ""; ""; ""; "" ] ]
        | Ok outcome ->
          List.map
            (fun (r : E.row) ->
              [ name;
                Pred.name r.E.source_pred ^ "^" ^ r.E.binding;
                itoa r.E.calls_alexander;
                itoa r.E.calls_magic;
                itoa r.E.answers_alexander;
                itoa r.E.answers_magic;
                (if r.E.calls_equal && r.E.answers_equal then "yes" else "NO")
              ])
            outcome.E.rows)
      cases
  in
  print_table
    ~title:
      "T3: Seki equivalence - Alexander templates vs supplementary magic"
    ~header:
      [ "workload"; "pred^ad"; "AT calls"; "SM calls"; "AT answers";
        "SM answers"; "equal" ]
    rows;
  print_endline
    "Expectation (the paper's theorem): every row shows identical call and\n\
     answer sets for the two rewritings, under the shared SIP."

(* ------------------------------------------------------------------ *)
(* T4: join work - generalized magic repeats rule prefixes, the
   supplementary/Alexander variants materialise them once *)

let t4 () =
  let program = W.reverse_same_generation ~layers:6 ~width:8 in
  let query = atom "rsg(0, X)" in
  let rows =
    List.map
      (fun strategy ->
        let report = run_strategy strategy program query in
        let c = report.S.counters in
        let rw_size =
          match report.S.rewritten with
          | Some rw -> itoa (Datalog_rewrite.Rewritten.num_rules rw)
          | None -> "-"
        in
        [ O.strategy_name strategy;
          rw_size;
          itoa c.C.firings;
          itoa c.C.probes;
          itoa c.C.scanned;
          itoa c.C.facts_derived;
          ms report.S.wall_time_s
        ])
      [ O.Magic; O.Supplementary; O.Alexander ]
  in
  print_table
    ~title:
      "T4: join work on reverse-same-generation 6x8, query rsg(0, X)"
    ~header:
      [ "rewriting"; "rules"; "firings"; "probes"; "scanned"; "facts"; "time ms" ]
    rows;
  print_endline
    "Expectation: the three rewritings trade recomputation for storage.\n\
     Generalized magic stores no intermediate joins (fewest facts) but\n\
     re-evaluates each rule prefix inside every magic rule; supplementary\n\
     magic materialises the join state after every literal (most facts,\n\
     fewest repeated probes); Alexander materialises it only at intensional\n\
     subgoals and sits between the two."

(* ------------------------------------------------------------------ *)
(* T5: the magic-sets extension to stratified negation *)

let t5 () =
  let n = 60 in
  let base_facts =
    W.chain ~pred:"edge" n
    @ List.concat_map
        (fun i ->
          [ Atom.app "pair" [ Term.int i; Term.int (n - i) ];
            Atom.app "pair" [ Term.int i; Term.int ((i * 7) mod n) ]
          ])
        [ 0; 3; 5; 10; 20; 30; 41 ]
  in
  let rules =
    List.map Datalog_parser.Parser.rule_of_string
      [ "link(X, Y) :- edge(X, Y).";
        "link(X, Y) :- edge(X, Z), link(Z, Y).";
        "broken(X, Y) :- pair(X, Y), not link(X, Y)."
      ]
  in
  let program = Program.make ~facts:base_facts rules in
  let query = atom "broken(0, Y)" in
  let rows =
    List.map
      (fun strategy ->
        let report = run_strategy strategy program query in
        let stratified_after =
          match report.S.rewritten with
          | None -> "(source)"
          | Some rw ->
            let full =
              Program.make
                ~facts:rw.Datalog_rewrite.Rewritten.seeds
                rw.Datalog_rewrite.Rewritten.rules
            in
            if Datalog_analysis.Stratify.is_stratified full then "yes" else "no"
        in
        [ O.strategy_name strategy;
          stratified_after;
          report.S.evaluator;
          itoa (List.length report.S.answers);
          itoa report.S.counters.C.facts_derived;
          ms report.S.wall_time_s
        ])
      O.all_strategies
  in
  print_table
    ~title:
      "T5: negation through the rewriting - broken(0, Y) over a 60-chain"
    ~header:
      [ "strategy"; "stratified?"; "evaluator"; "answers"; "facts"; "time ms" ]
    rows;
  print_endline
    "T5a: top-level negation keeps the rewritten program stratified, so\n\
     plain semi-naive still applies after the rewriting.";
  (* T5b: negation *before* a recursive subgoal in the SIP order.  The
     source program is stratified, but the rewriting routes the magic of
     the recursive predicate through the negated literal, creating a
     negative cycle: m_r depends on (not q), q on r, r on m_r.  The
     conditional fixpoint recovers the intended answers. *)
  let program_b =
    Datalog_parser.Parser.program_of_string
      "p(X) :- a(X), not q(X), r(X).\n\
       q(X) :- b(X), r(X).\n\
       r(X) :- c(X).\n\
       r(X) :- d(X, Y), r(Y).\n\
       a(1). a(2). a(3). a(4). b(2). b(4).\n\
       c(1). c(2). c(4). d(3, 1). d(4, 2)."
  in
  let query_b = atom "p(X)" in
  let rows_b =
    List.map
      (fun strategy ->
        let report = run_strategy strategy program_b query_b in
        let stratified_after =
          match report.S.rewritten with
          | None -> "(source)"
          | Some rw ->
            let full =
              Program.make
                ~facts:rw.Datalog_rewrite.Rewritten.seeds
                rw.Datalog_rewrite.Rewritten.rules
            in
            if Datalog_analysis.Stratify.is_stratified full then "yes" else "no"
        in
        [ O.strategy_name strategy;
          stratified_after;
          report.S.evaluator;
          itoa (List.length report.S.answers);
          itoa report.S.counters.C.facts_derived;
          ms report.S.wall_time_s
        ])
      O.all_strategies
  in
  print_table
    ~title:
      "T5b: negation BEFORE a recursive subgoal - p(X) :- a(X), not q(X), r(X)"
    ~header:
      [ "strategy"; "stratified?"; "evaluator"; "answers"; "facts"; "time ms" ]
    rows_b;
  print_endline
    "Expectation: the source program is stratified, but every rewriting\n\
     compromises stratification (column 2 = no) because the recursive\n\
     subgoal's magic now depends on the negated literal; the Auto planner\n\
     falls back to the conditional fixpoint and the answers still match\n\
     direct stratified evaluation - the magic-sets extension result."

(* ------------------------------------------------------------------ *)
(* T6: conditional fixpoint vs well-founded on win-move *)

let t6 () =
  let rows =
    List.map
      (fun (nodes, edges, seed) ->
        let program = W.win_move_random ~nodes ~edges ~seed in
        let t0 = Unix.gettimeofday () in
        let cond = Datalog_engine.Conditional.run ~limits:bench_limits program in
        let t_cond = Unix.gettimeofday () -. t0 in
        let t0 = Unix.gettimeofday () in
        let wf = Datalog_engine.Wellfounded.run ~limits:bench_limits program in
        let t_wf = Unix.gettimeofday () -. t0 in
        let cond_true =
          Datalog_storage.Database.cardinal
            cond.Datalog_engine.Conditional.true_db (Pred.make "win" 1)
        in
        let wf_true =
          Datalog_storage.Database.cardinal wf.Datalog_engine.Wellfounded.true_db
            (Pred.make "win" 1)
        in
        let agree =
          cond_true = wf_true
          && List.sort Atom.compare cond.Datalog_engine.Conditional.undefined
             = List.sort Atom.compare wf.Datalog_engine.Wellfounded.undefined
        in
        [ Printf.sprintf "n=%d e=%d seed=%d" nodes edges seed;
          itoa cond_true;
          itoa (List.length cond.Datalog_engine.Conditional.undefined);
          ms t_cond;
          itoa wf_true;
          itoa (List.length wf.Datalog_engine.Wellfounded.undefined);
          itoa wf.Datalog_engine.Wellfounded.rounds;
          ms t_wf;
          (if agree then "yes" else "NO")
        ])
      [ (30, 45, 1); (50, 100, 2); (80, 160, 3); (120, 300, 4); (200, 400, 5) ]
  in
  print_table
    ~title:
      "T6: win-move on random graphs - conditional fixpoint vs well-founded"
    ~header:
      [ "graph"; "cond true"; "cond undef"; "cond ms"; "wf true"; "wf undef";
        "wf rounds"; "wf ms"; "agree" ]
    rows;
  print_endline
    "Expectation: identical three-valued models; the conditional fixpoint\n\
     pays one pass plus reduction, the alternating fixpoint pays ~rounds\n\
     inner fixpoints."

(* ------------------------------------------------------------------ *)
(* T7: top-down tabling vs the bottom-up rewritings *)

let t7 () =
  let cases =
    [ ("anc chain 300, anc(100,X)", W.ancestor_chain 300, "anc(100, X)");
      ( "same gen 6x10, sg(0,X)",
        W.same_generation ~layers:6 ~width:10,
        "sg(0, X)" );
      ( "nonlinear tc 50, tc(10,X)",
        Program.make ~facts:(W.chain ~pred:"edge" 50) (W.tc_nonlinear_rules ()),
        "tc(10, X)" )
    ]
  in
  let rows =
    List.concat_map
      (fun (name, program, q) ->
        let query = atom q in
        List.map
          (fun strategy ->
            let report = run_strategy strategy program query in
            let c = report.S.counters in
            [ name;
              O.strategy_name strategy;
              itoa (List.length report.S.answers);
              itoa c.C.facts_derived;
              itoa c.C.probes;
              ms report.S.wall_time_s
            ])
          [ O.Tabled; O.Alexander; O.Supplementary_idb; O.Magic ])
      cases
  in
  print_table
    ~title:
      "T7: top-down tabled evaluation (OLDT/QSQR) vs the bottom-up rewritings"
    ~header:[ "workload"; "method"; "answers"; "facts"; "probes"; "time ms" ]
    rows;
  (* and the exact structural correspondence on one workload *)
  let program = W.ancestor_chain 100 in
  let query = atom "anc(30, X)" in
  let tab =
    match Datalog_engine.Tabled.run ~limits:bench_limits program query with
    | Ok outcome -> outcome
    | Error msg -> failwith msg
  in
  let at = run_strategy O.Alexander program query in
  let anc = Pred.make "anc" 2 in
  Printf.printf
    "correspondence on anc chain 100: tabled calls(anc^bf)=%d vs \
     |call_anc__bf|=%d; tabled answers=%d vs |ans_anc__bf|=%d\n"
    (Datalog_engine.Tabled.calls_for tab anc "bf")
    (Datalog_storage.Database.cardinal at.S.db (Pred.make "call_anc__bf" 1))
    (Datalog_engine.Tabled.answers_for tab anc "bf")
    (Datalog_storage.Database.cardinal at.S.db (Pred.make "ans_anc__bf" 2));
  print_endline
    "Expectation: the tabled calls and table contents coincide exactly with\n\
     the Alexander call/ans relations (same left-to-right selection); the\n\
     methods derive the same fact counts up to the continuation tuples the\n\
     bottom-up rewriting materialises.  With the agenda-based (consumer\n\
     wake-up) scheduler the tabled engine also probes far less: it never\n\
     re-joins a rule whose input tables did not grow."

(* ------------------------------------------------------------------ *)
(* F1: scaling on chain transitive closure *)

let f1 () =
  let sizes = [ 50; 100; 200; 400; 800 ] in
  let rows =
    List.concat_map
      (fun n ->
        let program = W.ancestor_chain n in
        let query = atom (Printf.sprintf "anc(%d, X)" (3 * n / 4)) in
        List.map
          (fun strategy ->
            let report = run_strategy strategy program query in
            [ itoa n;
              O.strategy_name strategy;
              itoa (List.length report.S.answers);
              itoa report.S.counters.C.facts_derived;
              ms report.S.wall_time_s
            ])
          [ O.Seminaive; O.Magic; O.Supplementary; O.Alexander ])
      sizes
  in
  print_table
    ~title:
      "F1: scaling series - chain TC, query anc(3n/4, X), n in {50..800}"
    ~header:[ "n"; "strategy"; "answers"; "facts"; "time ms" ]
    rows;
  print_endline
    "Expectation: raw semi-naive grows with the full closure (O(n^2) facts)\n\
     regardless of the query; the rewritings grow only with the reachable\n\
     suffix (O(n) here), so the gap widens with n."

(* ------------------------------------------------------------------ *)
(* F2: selectivity crossover on random graphs *)

let f2 () =
  let nodes = 150 in
  let rows =
    List.map
      (fun factor ->
        let edges = int_of_float (float_of_int nodes *. factor) in
        let program =
          Program.make
            ~facts:(W.random_graph ~pred:"edge" ~nodes ~edges ~seed:7)
            (W.ancestor_rules ())
        in
        let query = atom "anc(0, X)" in
        let semi = run_strategy O.Seminaive program query in
        let magic = run_strategy O.Alexander program query in
        let reach = List.length magic.S.answers in
        [ Printf.sprintf "%.1f" factor;
          itoa edges;
          itoa reach;
          itoa semi.S.counters.C.facts_derived;
          itoa magic.S.counters.C.facts_derived;
          Printf.sprintf "%.2f"
            (float_of_int semi.S.counters.C.facts_derived
            /. float_of_int (max 1 magic.S.counters.C.facts_derived))
        ])
      [ 0.5; 1.0; 1.5; 2.0; 3.0; 4.0 ]
  in
  print_table
    ~title:
      "F2: selectivity sweep - anc(0, X) on random graphs, 150 nodes"
    ~header:
      [ "e/n"; "edges"; "reachable"; "semi facts"; "alexander facts"; "ratio" ]
    rows;
  print_endline
    "Expectation: sparse graphs leave node 0 a small reachable set (big\n\
     ratio); past the percolation threshold almost everything is reachable\n\
     and the ratio falls toward ~1 - the crossover where rewriting stops\n\
     paying."

(* ------------------------------------------------------------------ *)
(* F3: size of the rewritten program *)

let f3 () =
  let make_chain_rule_program k =
    (* p(X0, Xk) :- e(X0, X1), q1(X1, X2), ..., q(k-1)(X(k-1), Xk); each
       qi is intensional with one EDB rule, so the main rule has k body
       literals of which k-1 are intensional subgoals *)
    let body =
      List.init k (fun i ->
          let pred = if i = 0 then "e" else Printf.sprintf "q%d" i in
          Literal.pos
            (Atom.app pred
               [ Term.var (Printf.sprintf "X%d" i);
                 Term.var (Printf.sprintf "X%d" (i + 1))
               ]))
    in
    let main =
      Rule.make
        (Atom.app "p" [ Term.var "X0"; Term.var (Printf.sprintf "X%d" k) ])
        body
    in
    let helpers =
      List.init (max 0 (k - 1)) (fun i ->
          Datalog_parser.Parser.rule_of_string
            (Printf.sprintf "q%d(X, Y) :- e(X, Y)." (i + 1)))
    in
    Program.make ~facts:(W.chain ~pred:"e" 3) (main :: helpers)
  in
  let rows =
    List.concat_map
      (fun k ->
        let program = make_chain_rule_program k in
        let query = atom "p(0, X)" in
        let adorned = Datalog_rewrite.Adorn.adorn program query in
        List.map
          (fun (name, transform) ->
            let rw = transform adorned in
            [ itoa k;
              name;
              itoa (Datalog_rewrite.Rewritten.num_rules rw);
              itoa (Datalog_rewrite.Rewritten.num_preds rw)
            ])
          [ ("magic", Datalog_rewrite.Magic.transform);
            ("supplementary", Datalog_rewrite.Supplementary.transform);
            ("alexander", Datalog_rewrite.Alexander_templates.transform)
          ])
      [ 1; 2; 3; 4; 6; 8 ]
  in
  print_table
    ~title:
      "F3: rewriting blow-up - one k-literal rule plus helper predicates"
    ~header:[ "k"; "rewriting"; "rules"; "preds" ]
    rows;
  print_endline
    "Expectation: supplementary magic adds ~k auxiliary predicates per rule\n\
     (it cuts at every literal); Alexander adds one per intensional subgoal\n\
     only; generalized magic adds none but its magic-rule bodies repeat\n\
     prefixes (cost shows in T4, not here)."

(* ------------------------------------------------------------------ *)
(* F4: the cost of domain predicates (what cdi avoids) *)

let f4 () =
  let rows =
    List.concat_map
      (fun n ->
        let program = W.ancestor_chain n in
        let query = atom (Printf.sprintf "anc(%d, X)" (n / 2)) in
        let plain = run_strategy O.Seminaive program query in
        let guarded_program = Alexander.Preprocess.add_domain_guards program in
        let guarded = run_strategy O.Seminaive guarded_program query in
        let row tag (r : S.report) =
          [ itoa n;
            tag;
            itoa (List.length r.S.answers);
            itoa r.S.counters.C.facts_derived;
            itoa r.S.counters.C.scanned;
            ms r.S.wall_time_s
          ]
        in
        [ row "cdi (no dom)" plain; row "dom-guarded" guarded ])
      [ 10; 20; 40 ]
  in
  print_table
    ~title:
      "F4: evaluating with explicit domain guards vs the cdi discipline\n\
       (chain TC, every rule variable guarded by dom(X))"
    ~header:[ "n"; "evaluation"; "answers"; "facts"; "scanned"; "time ms" ]
    rows;
  print_endline
    "Expectation: the domain-guarded program derives the same answers but\n\
     pays for materialising dom/1 and for joining every rule through it -\n\
     the overhead the constructive-domain-independence result eliminates\n\
     by restricting queries to ranged (ordered) formulas."

(* ------------------------------------------------------------------ *)
(* T8: sideways-information-passing ablation - LTR vs greedy *)

let t8 () =
  (* a rule whose textual order is bad for the bound query: the greedy
     SIP starts from the literal sharing the bound variable *)
  let program =
    Program.make
      ~facts:
        (W.chain ~pred:"e" 120
        @ W.random_graph ~pred:"f" ~nodes:120 ~edges:240 ~seed:3)
      [ Datalog_parser.Parser.rule_of_string "p(X, Y) :- f(W, Y), e(X, Z), f(Z, W).";
        Datalog_parser.Parser.rule_of_string "q(X, Y) :- p(X, Y).";
        Datalog_parser.Parser.rule_of_string "q(X, Y) :- p(X, Z), q(Z, Y)."
      ]
  in
  let query = atom "q(5, Y)" in
  let rows =
    List.concat_map
      (fun (sips_name, sips) ->
        List.map
          (fun strategy ->
            let options =
              { O.strategy;
                negation = O.Auto;
                sips;
                limits = bench_limits;
                profile = false;
                trace = None;
                checkpoint = Datalog_engine.Checkpoint.none;
                compile = true;
                merge = true;
                subsume = true;
                explain = false
              }
            in
            let report = S.run_exn ~options program query in
            let c = report.S.counters in
            [ sips_name;
              O.strategy_name strategy;
              itoa (List.length report.S.answers);
              itoa c.C.facts_derived;
              itoa c.C.scanned;
              ms report.S.wall_time_s
            ])
          [ O.Magic; O.Alexander ])
      [ ("ltr", Datalog_rewrite.Sips.Left_to_right);
        ("greedy", Datalog_rewrite.Sips.Greedy_bound)
      ]
  in
  print_table
    ~title:"T8: SIP ablation - left-to-right vs greedy body ordering"
    ~header:[ "sip"; "rewriting"; "answers"; "facts"; "scanned"; "time ms" ]
    rows;
  print_endline
    "Expectation: answers are identical under any SIP (and the Seki\n\
     equivalence holds per SIP - tested); work differs because the greedy\n\
     order joins through the bound variable first instead of starting\n\
     from an unconstrained literal."

(* ------------------------------------------------------------------ *)
(* T9: the cost of crash safety - resource governor and checkpointing
   against an ungoverned run.  The save cadence comes from
   [--checkpoint-every N] (default 1: save every round). *)

let checkpoint_every = ref 1

let t9_cases () =
  [ ("anc chain 400, anc(300,X)", W.ancestor_chain 400, "anc(300, X)");
    ( "same gen 8x12, sg(0,X)",
      W.same_generation ~layers:8 ~width:12,
      "sg(0, X)" )
  ]

(* (base, governed, checkpointed, checkpoint) for one workload/strategy *)
let checkpoint_overhead strategy program query ~every =
  let run ?(checkpoint = Datalog_engine.Checkpoint.none) limits =
    let options =
      { O.default with O.strategy; limits; profile = false; checkpoint }
    in
    S.run_exn ~options program query
  in
  let base = run Datalog_engine.Limits.none in
  let governed = run bench_limits in
  let path = Filename.temp_file "alexbench" ".ckpt" in
  let ck = Datalog_engine.Checkpoint.create ~path ~every () in
  let checkpointed = run ~checkpoint:ck bench_limits in
  (try Sys.remove path with Sys_error _ -> ());
  (base, governed, checkpointed, ck)

let t9 () =
  let every = max 1 !checkpoint_every in
  let rows =
    List.concat_map
      (fun (name, program, q) ->
        let query = atom q in
        List.concat_map
          (fun strategy ->
            let base, governed, checkpointed, ck =
              checkpoint_overhead strategy program query ~every
            in
            let pct (r : S.report) =
              Printf.sprintf "%+.1f%%"
                (100.
                *. (r.S.wall_time_s -. base.S.wall_time_s)
                /. Float.max 1e-9 base.S.wall_time_s)
            in
            let row config saves (r : S.report) delta =
              [ name;
                O.strategy_name strategy;
                config;
                itoa (List.length r.S.answers);
                saves;
                ms r.S.wall_time_s;
                delta
              ]
            in
            [ row "ungoverned" "-" base "-";
              row "governed" "-" governed (pct governed);
              row
                (Printf.sprintf "checkpointed/%d" every)
                (itoa (Datalog_engine.Checkpoint.saves ck))
                checkpointed (pct checkpointed)
            ])
          [ O.Seminaive; O.Alexander; O.Tabled ])
      (t9_cases ())
  in
  print_table
    ~title:
      (Printf.sprintf
         "T9: crash-safety overhead - ungoverned vs governed vs checkpointed \
          (--checkpoint-every %d)"
         every)
    ~header:
      [ "workload"; "strategy"; "configuration"; "answers"; "saves";
        "time ms"; "vs ungoverned" ]
    rows;
  print_endline
    "Expectation: the governor costs a bounded-counter check per derivation\n\
     (a few percent); checkpointing adds one serialized snapshot per\n\
     [every] completed rounds, so its cost falls as the cadence widens -\n\
     rerun with --checkpoint-every 4 to see the knob."

(* ------------------------------------------------------------------ *)
(* Bechamel: one timing test per experiment, all in one executable *)

let bechamel_tests () =
  let open Bechamel in
  let t strategy program query () =
    ignore (run_strategy strategy program (atom query))
  in
  let anc = W.ancestor_chain 120 in
  let sg = W.same_generation ~layers:5 ~width:6 in
  let rsg = W.reverse_same_generation ~layers:4 ~width:5 in
  let t5_prog =
    Datalog_parser.Parser.program_of_string
      "link(X, Y) :- edge(X, Y). link(X, Y) :- edge(X, Z), link(Z, Y).\n\
       broken(X, Y) :- pair(X, Y), not link(X, Y).\n\
       edge(0,1). edge(1,2). edge(2,3). edge(3,4). edge(4,5).\n\
       pair(0,5). pair(0,9). pair(2,4)."
  in
  let wm = W.win_move_random ~nodes:40 ~edges:80 ~seed:11 in
  [ Test.make ~name:"T1/anc-chain-magic" (Staged.stage (t O.Magic anc "anc(90, X)"));
    Test.make ~name:"T2/sg-alexander" (Staged.stage (t O.Alexander sg "sg(0, X)"));
    Test.make ~name:"T3/equivalence-check"
      (Staged.stage (fun () -> ignore (E.check anc (atom "anc(90, X)"))));
    Test.make ~name:"T4/rsg-supplementary"
      (Staged.stage (t O.Supplementary rsg "rsg(0, X)"));
    Test.make ~name:"T5/negation-magic"
      (Staged.stage (t O.Magic t5_prog "broken(0, Y)"));
    Test.make ~name:"T6/winmove-wellfounded"
      (Staged.stage (fun () ->
           ignore (Datalog_engine.Wellfounded.run ~limits:bench_limits wm)));
    Test.make ~name:"T7/anc-chain-tabled"
      (Staged.stage (t O.Tabled anc "anc(90, X)"));
    Test.make ~name:"F1/anc-chain-seminaive"
      (Staged.stage (t O.Seminaive anc "anc(90, X)"));
    Test.make ~name:"F2/random-graph-alexander"
      (Staged.stage
         (t O.Alexander
            (Program.make
               ~facts:(W.random_graph ~pred:"edge" ~nodes:80 ~edges:120 ~seed:7)
               (W.ancestor_rules ()))
            "anc(0, X)"));
    Test.make ~name:"T8/greedy-sip"
      (Staged.stage (fun () ->
           (* [open Bechamel] shadows the S alias *)
           ignore
             (Alexander.Solve.run_exn
                ~options:
                  { O.strategy = O.Alexander;
                    negation = O.Auto;
                    sips = Datalog_rewrite.Sips.Greedy_bound;
                    limits = bench_limits;
                    profile = false;
                    trace = None;
                    checkpoint = Datalog_engine.Checkpoint.none;
                    compile = true;
                    merge = true;
                    subsume = true;
                    explain = false
                  }
                sg (atom "sg(0, X)"))));
    Test.make ~name:"F4/dom-guarded"
      (Staged.stage (fun () ->
           ignore
             (run_strategy O.Seminaive
                (Alexander.Preprocess.add_domain_guards (W.ancestor_chain 30))
                (atom "anc(15, X)"))));
    Test.make ~name:"F3/rewrite-only"
      (Staged.stage (fun () ->
           ignore
             (Datalog_rewrite.Supplementary.transform
                (Datalog_rewrite.Adorn.adorn sg (atom "sg(0, X)")))))
  ]

let run_bechamel () =
  let open Bechamel in
  let open Toolkit in
  print_endline "\n== Bechamel timings (ns per run, OLS estimate) ==";
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.3) () in
  let grouped = Test.make_grouped ~name:"alexander" (bechamel_tests ()) in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] grouped in
  let results =
    Analyze.all
      (Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| "run" |])
      Instance.monotonic_clock raw
  in
  let names = Hashtbl.fold (fun k _ acc -> k :: acc) results [] in
  List.iter
    (fun name ->
      match Hashtbl.find_opt results name with
      | Some ols -> (
        match Analyze.OLS.estimates ols with
        | Some (est :: _) -> Printf.printf "  %-40s %14.0f ns/run\n" name est
        | Some [] | None -> Printf.printf "  %-40s (no estimate)\n" name)
      | None -> ())
    (List.sort String.compare names)

(* ------------------------------------------------------------------ *)
(* T10: durable-ingest throughput.  Facts per second through the
   supervisor's mutation path under each durability regime.  The cell
   to watch: wal-backed acks stay within a constant factor of
   no-durability, while the snapshot-per-transaction regime the log
   replaced collapses as the database grows — O(db) per ack against
   the log's O(batch). *)

module Sup = Datalog_server.Supervisor
module SP = Datalog_server.Protocol

let durable_batches = 240
let durable_batch_facts = 5

let durable_configs dir =
  let snap name = Some (Filename.concat dir name) in
  [ ( "no-durability",
      { Sup.default_config with
        Sup.snapshot_path = None;
        durable_acks = false
      },
      `Plain );
    ( "wal-always",
      { Sup.default_config with Sup.snapshot_path = snap "always.alexsnap" },
      `Plain );
    ( "wal-interval",
      { Sup.default_config with
        Sup.snapshot_path = snap "interval.alexsnap";
        wal_fsync = Datalog_storage.Wal.Interval 0.05
      },
      `Tick );
    ( "snapshot-per-txn",
      { Sup.default_config with
        Sup.snapshot_path = snap "pertxn.alexsnap";
        durable_acks = false
      },
      `Snapshot )
  ]

let durable_ingest_results () =
  let dir = Filename.temp_file "alexbench" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect ~finally:(fun () ->
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Sys.rmdir dir with Sys_error _ -> ())
  @@ fun () ->
  List.map
    (fun (name, config, style) ->
      let t =
        match
          Sup.create config (Program.make ~facts:[ atom "ing(0, 0)" ] [])
        with
        | Ok t -> t
        | Error msg -> failwith (name ^ ": " ^ msg)
      in
      let t0 = Unix.gettimeofday () in
      for b = 1 to durable_batches do
        let facts =
          List.init durable_batch_facts (fun j ->
              atom (Printf.sprintf "ing(%d, %d)" b j))
        in
        let env =
          { SP.req_id = Datalog_engine.Json.Null;
            budgets = SP.no_budgets;
            idem_key = None;
            request = SP.Add facts
          }
        in
        let reply, _ = Sup.handle t ~now:(Unix.gettimeofday ()) env in
        (match Datalog_engine.Json.member "status" reply with
        | Some (Datalog_engine.Json.String "ok") -> ()
        | _ ->
          failwith
            (Printf.sprintf "%s: batch %d refused: %s" name b
               (Datalog_engine.Json.to_line reply)));
        match style with
        | `Plain -> ()
        | `Tick -> Sup.maybe_snapshot t ~now:(Unix.gettimeofday ())
        | `Snapshot -> (
          match Sup.snapshot_now t with
          | Ok () -> ()
          | Error msg -> failwith (name ^ ": snapshot failed: " ^ msg))
      done;
      let wall = Unix.gettimeofday () -. t0 in
      (name, wall))
    (durable_configs dir)

let t10 () =
  let total = durable_batches * durable_batch_facts in
  let rows =
    List.map
      (fun (name, wall) ->
        [ name;
          itoa durable_batches;
          itoa total;
          ms wall;
          Printf.sprintf "%.0f" (float_of_int total /. wall)
        ])
      (durable_ingest_results ())
  in
  print_table
    ~title:
      (Printf.sprintf
         "T10: durable-ingest throughput (%d batches of %d facts)"
         durable_batches durable_batch_facts)
    ~header:[ "durability"; "batches"; "facts"; "wall ms"; "facts/s" ]
    rows

(* ------------------------------------------------------------------ *)
(* Machine-readable baseline: the per-strategy join-work comparison the
   paper's cost claim rests on, as schema-stable JSON for future perf PRs
   to diff against (see docs/OBSERVABILITY.md). *)

module J = Datalog_engine.Json

let plan_workloads () =
  [ ("anc_chain_400", W.ancestor_chain 400, "anc(300, X)");
    ("same_generation_8x12", W.same_generation ~layers:8 ~width:12, "sg(0, X)");
    ( "reverse_sg_6x8",
      W.reverse_same_generation ~layers:6 ~width:8,
      "rsg(0, X)" );
    ( "nonlinear_tc_60",
      Program.make ~facts:(W.chain ~pred:"edge" 60) (W.tc_nonlinear_rules ()),
      "tc(10, X)" )
  ]

let json_strategies =
  [ O.Seminaive; O.Magic; O.Supplementary; O.Supplementary_idb; O.Alexander;
    O.Tabled ]

(* bound-pair workloads: non-linear tc whose both-bound query adorns [tc]
   with the comparable {bb, bf} adornment pair, so the runtime
   subsumption filter has work to do — the gated evidence that
   [--subsume] (the default) strictly lowers facts_derived and probes
   lives in these cells *)
let magic_family = [ O.Magic; O.Supplementary; O.Supplementary_idb; O.Alexander ]

let subsume_workloads () =
  [ ("tc_bound_chain_60", W.tc_bound_pair 60, "tc(0, 60)");
    ("tc_bound_tree_7x2", W.tc_bound_tree ~depth:7 ~fanout:2, "tc(0, 200)");
    ("tc_bound_tree_5x3", W.tc_bound_tree ~depth:5 ~fanout:3, "tc(0, 300)");
    ( "tc_bound_random_80",
      W.tc_bound_random ~nodes:80 ~edges:160 ~seed:7,
      "tc(0, 40)" )
  ]

(* strata-heavy negation workloads for the well-founded engine: the deep
   game tree is locally stratified (every atom decided), the chords on a
   Hamiltonian cycle are not (a dense undefined region survives into the
   residual program) *)
let wellfounded_workloads () =
  [ ("win_tree_7x2", W.win_tree ~depth:7 ~fanout:2, "win(0)");
    ("win_cycle_dense_60", W.win_cycle_dense ~nodes:60 ~seed:11, "win(0)")
  ]

(* the long-running cell: the full transitive closure of a 4000-node
   chain.  Restricted to the cheap strategies — seminaive saturates the
   whole relation, magic touches only the bound suffix (the rewriting
   contrast). *)
let long_workload () = ("anc_chain_4000", W.ancestor_chain 4000, "anc(3000, X)")
let long_strategies = [ O.Seminaive; O.Magic ]

(* full saturation of the 4000-chain can approach [bench_limits]'s 120 s
   on a slow machine; a mid-run timeout would make the cell's counters
   nondeterministic and flake the regression gate, so it gets its own
   bound *)
let long_limits = Datalog_engine.Limits.make ~timeout_s:900. ()

let json_workloads () =
  List.map (fun (n, p, q) -> (n, p, q, json_strategies)) (plan_workloads ())
  @ List.map (fun (n, p, q) -> (n, p, q, magic_family)) (subsume_workloads ())
  @ [ (fun (n, p, q) -> (n, p, q, long_strategies)) (long_workload ()) ]

let json_baseline out =
  let workloads =
    List.map
      (fun (name, program, q, strategies) ->
        let query = atom q in
        let limits =
          if name = "anc_chain_4000" then long_limits else bench_limits
        in
        let strategies =
          List.map
            (fun strategy ->
              let report =
                run_strategy ~profile:true ~limits strategy program query
              in
              S.report_json ~query report)
            strategies
        in
        J.Obj
          [ ("workload", J.String name);
            ("query", J.String q);
            ("strategies", J.List strategies)
          ])
      (json_workloads ())
  in
  (* well-founded cells ride in the gated "workloads" section too; the
     evaluation runs under [negation = Well_founded] (the strategy field
     of the options record is immaterial there), so the cell key is
     rewritten to the evaluator's name *)
  let set_field key value = function
    | J.Obj fields ->
      J.Obj
        (List.map (fun (k, v) -> if k = key then (k, value) else (k, v)) fields)
    | j -> j
  in
  let workloads =
    workloads
    @ List.map
        (fun (name, program, q) ->
          let query = atom q in
          let report =
            run_strategy ~negation:O.Well_founded ~profile:true O.Seminaive
              program query
          in
          J.Obj
            [ ("workload", J.String name);
              ("query", J.String q);
              ( "strategies",
                J.List
                  [ set_field "strategy" (J.String "wellfounded")
                      (S.report_json ~query report)
                  ] )
            ])
        (wellfounded_workloads ())
  in
  (* governed-vs-checkpointed wall-time deltas, so perf PRs can watch the
     crash-safety overhead as well as the join work *)
  let every = max 1 !checkpoint_every in
  let checkpointing =
    List.concat_map
      (fun (name, program, q) ->
        let query = atom q in
        List.map
          (fun strategy ->
            let base, governed, checkpointed, ck =
              checkpoint_overhead strategy program query ~every
            in
            J.Obj
              [ ("workload", J.String name);
                ("strategy", J.String (O.strategy_name strategy));
                ("checkpoint_every", J.Int every);
                ("saves", J.Int (Datalog_engine.Checkpoint.saves ck));
                ("ungoverned_wall_s", J.Float base.S.wall_time_s);
                ("governed_wall_s", J.Float governed.S.wall_time_s);
                ("checkpointed_wall_s", J.Float checkpointed.S.wall_time_s);
                ( "governed_delta_s",
                  J.Float (governed.S.wall_time_s -. base.S.wall_time_s) );
                ( "checkpointed_delta_s",
                  J.Float (checkpointed.S.wall_time_s -. base.S.wall_time_s) )
              ])
          [ O.Seminaive; O.Alexander; O.Tabled ])
      (List.map
         (fun (n, p, q) ->
           (String.map (fun c -> if c = ' ' then '_' else c) n, p, q))
         [ ("anc_chain_400", W.ancestor_chain 400, "anc(300, X)");
           ( "same_generation_8x12",
             W.same_generation ~layers:8 ~width:12,
             "sg(0, X)" )
         ])
  in
  (* compiled-plan ablation: compiled vs interpreted wall time, the ltr
     (merge joins on) vs hash (merge joins off) vs cost-aware SIP
     join-work and allocation counters, per workload *)
  let plan_section =
    List.concat_map
      (fun (name, program, q) ->
        let query = atom q in
        List.map
          (fun strategy ->
            let counters_json (r : S.report) =
              J.Obj
                [ ("probes", J.Int r.S.counters.C.probes);
                  ("scanned", J.Int r.S.counters.C.scanned);
                  ("firings", J.Int r.S.counters.C.firings);
                  ("merge_steps", J.Int r.S.counters.C.merge_steps);
                  ("gallops", J.Int r.S.counters.C.gallops);
                  ("minor_words", J.Float r.S.minor_words)
                ]
            in
            let compiled = run_strategy strategy program query in
            let interpreted =
              run_strategy ~compile:false strategy program query
            in
            let hash = run_strategy ~merge:false strategy program query in
            let cost =
              run_strategy ~sips:Datalog_rewrite.Sips.Cost_aware strategy
                program query
            in
            J.Obj
              [ ("workload", J.String name);
                ("strategy", J.String (O.strategy_name strategy));
                ("compiled_wall_s", J.Float compiled.S.wall_time_s);
                ("interpreted_wall_s", J.Float interpreted.S.wall_time_s);
                ("ltr", counters_json compiled);
                ("hash", counters_json hash);
                ("cost", counters_json cost)
              ])
          [ O.Seminaive; O.Magic; O.Alexander ])
      (plan_workloads ())
  in
  (* durable-ingest throughput per durability regime; wall times only,
     so the regression gate (which reads "workloads") never flakes on
     fsync latency *)
  let durable_ingest =
    let total = durable_batches * durable_batch_facts in
    List.map
      (fun (name, wall) ->
        J.Obj
          [ ("config", J.String name);
            ("batches", J.Int durable_batches);
            ("facts_per_batch", J.Int durable_batch_facts);
            ("wall_s", J.Float wall);
            ("facts_per_s", J.Float (float_of_int total /. wall))
          ])
      (durable_ingest_results ())
  in
  (* subsumption ablation: the same bound-pair cells with the filter on
     (the default, what "workloads" gates) and off, so the saved join
     work is visible as a paired diff rather than across files *)
  let subsume_section =
    List.concat_map
      (fun (name, program, q) ->
        let query = atom q in
        let counters_json (r : S.report) =
          J.Obj
            [ ("facts_derived", J.Int r.S.counters.C.facts_derived);
              ("probes", J.Int r.S.counters.C.probes);
              ("scanned", J.Int r.S.counters.C.scanned);
              ("firings", J.Int r.S.counters.C.firings);
              ("subsumed", J.Int r.S.counters.C.subsumed);
              ("minor_words", J.Float r.S.minor_words)
            ]
        in
        List.map
          (fun strategy ->
            let on = run_strategy strategy program query in
            let off = run_strategy ~subsume:false strategy program query in
            J.Obj
              [ ("workload", J.String name);
                ("strategy", J.String (O.strategy_name strategy));
                ("answers", J.Int (List.length on.S.answers));
                ("subsume_on", counters_json on);
                ("subsume_off", counters_json off);
                ("on_wall_s", J.Float on.S.wall_time_s);
                ("off_wall_s", J.Float off.S.wall_time_s)
              ])
          magic_family)
      (subsume_workloads ())
  in
  let doc =
    J.Obj
      [ ("schema_version", J.Int 7);
        ("suite", J.String "alexander-bench-baseline");
        ("workloads", J.List workloads);
        ("subsume", J.List subsume_section);
        ("plan", J.List plan_section);
        ("checkpointing", J.List checkpointing);
        ("durable_ingest", J.List durable_ingest)
      ]
  in
  Out_channel.with_open_text out (fun oc -> J.to_channel oc doc);
  let cells =
    List.fold_left
      (fun acc (_, _, _, strategies) -> acc + List.length strategies)
      0 (json_workloads ())
  in
  Printf.printf "wrote %s (%d workloads, %d strategy cells)\n" out
    (List.length workloads) cells

(* ------------------------------------------------------------------ *)

let experiments =
  [ ("T1", t1); ("T2", t2); ("T3", t3); ("T4", t4); ("T5", t5); ("T6", t6);
    ("T7", t7); ("T8", t8); ("T9", t9); ("T10", t10); ("F1", f1); ("F2", f2);
    ("F3", f3); ("F4", f4)
  ]

let die code fmt = Printf.ksprintf (fun msg -> prerr_endline msg; exit code) fmt

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let no_bechamel = List.mem "--no-bechamel" args in
  let json_mode = List.mem "--json" args in
  let json_out = ref "BENCH_baseline.json" in
  let rec extract_opts acc = function
    | [] -> List.rev acc
    | "--csv" :: dir :: rest ->
      csv_dir := Some dir;
      extract_opts acc rest
    | "--json-out" :: path :: rest ->
      json_out := path;
      extract_opts acc rest
    | "--checkpoint-every" :: n :: rest ->
      (match int_of_string_opt n with
      | Some n when n >= 1 -> checkpoint_every := n
      | _ -> die 2 "--checkpoint-every expects a positive integer, got %S" n);
      extract_opts acc rest
    | a :: rest -> extract_opts (a :: acc) rest
  in
  let selected =
    List.filter
      (fun a -> a <> "--no-bechamel" && a <> "--json")
      (extract_opts [] args)
  in
  List.iter
    (fun name ->
      if not (List.mem_assoc name experiments) then
        die 2 "unknown experiment %S (known: %s)" name
          (String.concat " " (List.map fst experiments)))
    selected;
  if json_mode then json_baseline !json_out
  else begin
    let to_run =
      match selected with
      | [] -> experiments
      | names -> List.filter (fun (name, _) -> List.mem name names) experiments
    in
    Printf.printf
      "Alexander templates benchmark harness - regenerating %d experiments\n"
      (List.length to_run);
    List.iter (fun (_, f) -> f ()) to_run;
    if (not no_bechamel) && selected = [] then run_bechamel ()
  end

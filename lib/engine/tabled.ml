open Datalog_ast
open Datalog_storage
open Datalog_analysis

type call = {
  call_pred : Pred.t;
  bound : (int * Code.t) list;
}

let call_binding c =
  String.init (Pred.arity c.call_pred) (fun i ->
      if List.mem_assoc i c.bound then 'b' else 'f')

let call_equal a b =
  Pred.equal a.call_pred b.call_pred
  && List.length a.bound = List.length b.bound
  && List.for_all2
       (fun (i, v) (j, w) -> i = j && Code.equal v w)
       a.bound b.bound

let call_hash c =
  List.fold_left
    (fun acc (i, v) -> (acc * 31) + (i * 7) + Code.hash v)
    (Pred.hash c.call_pred) c.bound

module CallTbl = Hashtbl.Make (struct
  type t = call
  let equal = call_equal
  let hash = call_hash
end)

(* Ground goals (pred + coded tuple): the key of the negation memo. *)
module GroundTbl = Hashtbl.Make (struct
  type t = Pred.t * Tuple.t
  let equal (p1, t1) (p2, t2) = Pred.equal p1 p2 && Tuple.equal t1 t2
  let hash (p, t) = (Pred.hash p * 31) + Tuple.hash t
end)

type outcome = {
  answers : Tuple.t list;
  calls : call list;
  tables : (call * Tuple.t list) list;
  counters : Counters.t;
  status : Limits.status;
}

(* Compiled call plans, shared (with their memoised index handles) by the
   root state and every nested negation state: keyed on the source rule
   and the call's binding pattern. *)
type plan_store = {
  cfg : Plan.config;
  cache : (Rule.t * string, (int * Plan.action) array * Plan.t) Hashtbl.t;
  card : Pred.t -> int;  (* EDB cardinalities for the cost SIP *)
  is_idb : Pred.t -> bool;
}

type state = {
  program : Program.t;
  edb : Database.t;
  counters : Counters.t;
  guard : Limits.guard;  (* shared with nested negation evaluations *)
  profile : Profile.t;  (* likewise shared, so nested work is attributed *)
  tables : Relation.t CallTbl.t;
  consumers : call list ref CallTbl.t;
      (* calls whose rules read a given call's table: when the table grows
         they must be re-solved *)
  dirty : unit CallTbl.t;  (* members of the agenda *)
  mutable agenda : call list;
  mutable order : call list;  (* reverse creation order *)
  neg_memo : bool GroundTbl.t;  (* shared across nested evaluations *)
  ckpt : Checkpoint.t;  (* inactive in nested negation states *)
  plans : plan_store option;  (* None = interpreted evaluation *)
}

(* Tables in the engine-independent shape {!Checkpoint} serializes; built
   lazily, only when a save is actually due.  Bound patterns are decoded
   here: the checkpoint format stores portable values, not process-local
   codes. *)
let dump_tables st () =
  List.rev_map
    (fun c ->
      ( c.call_pred,
        List.map (fun (i, cv) -> (i, Code.to_value cv)) c.bound,
        match CallTbl.find_opt st.tables c with
        | None -> []
        | Some rel -> Relation.to_list rel ))
    st.order

let schedule st c =
  if not (CallTbl.mem st.dirty c) then begin
    CallTbl.add st.dirty c ();
    st.agenda <- c :: st.agenda
  end

let call_of_atom env atom =
  { call_pred = Atom.pred atom; bound = Eval.bound_positions env atom }

let rec ensure_call st c =
  match CallTbl.find_opt st.tables c with
  | Some rel -> rel
  | None ->
    let rel = Relation.create (Pred.arity c.call_pred) in
    CallTbl.add st.tables c rel;
    st.order <- c :: st.order;
    schedule st c;
    rel

(* the consumer must be re-solved whenever [producer]'s table grows *)
and register_consumer st ~producer ~consumer =
  let bucket =
    match CallTbl.find_opt st.consumers producer with
    | Some b -> b
    | None ->
      let b = ref [] in
      CallTbl.add st.consumers producer b;
      b
  in
  if not (List.exists (call_equal consumer) !bucket) then
    bucket := consumer :: !bucket

(* Decide a ground negated intensional goal by a nested, memoised tabled
   evaluation: sound because the planner only admits stratified programs,
   so the nested goal cannot depend on the current tables. *)
and decide_negation st pred (tuple : Tuple.t) =
  match GroundTbl.find_opt st.neg_memo (pred, tuple) with
  | Some holds -> not holds
  | None ->
    let sub =
      { program = st.program;
        edb = st.edb;
        counters = st.counters;
        guard = st.guard;
        profile = st.profile;
        tables = CallTbl.create 32;
        consumers = CallTbl.create 32;
        dirty = CallTbl.create 32;
        agenda = [];
        order = [];
        neg_memo = st.neg_memo;
        ckpt = Checkpoint.none;
        plans = st.plans
      }
    in
    let c =
      { call_pred = pred;
        bound = Array.to_list (Array.mapi (fun i cv -> (i, cv)) tuple)
      }
    in
    ignore (ensure_call sub c);
    saturate sub;
    let holds =
      match CallTbl.find_opt sub.tables c with
      | None -> false
      | Some rel -> Relation.mem rel tuple
    in
    GroundTbl.add st.neg_memo (pred, tuple) holds;
    not holds

and interpret_body st ~consumer body env emit =
  match body with
  | [] -> emit env
  | Literal.Pos atom :: rest ->
    let pred = Atom.pred atom in
    let candidates, width =
      if Program.is_idb st.program pred then begin
        let c = call_of_atom env atom in
        let rel = ensure_call st c in
        register_consumer st ~producer:c ~consumer;
        st.counters.Counters.probes <- st.counters.Counters.probes + 1;
        (Relation.to_list rel, Relation.cardinal rel)
      end
      else begin
        st.counters.Counters.probes <- st.counters.Counters.probes + 1;
        match Database.find st.edb pred with
        | None -> ([], 0)
        | Some rel ->
          Relation.select_count rel (Eval.bound_positions env atom)
      end
    in
    if Profile.is_active st.profile then
      Profile.probe st.profile pred ~scanned:width;
    List.iter
      (fun tuple ->
        Limits.check st.guard;
        st.counters.Counters.scanned <- st.counters.Counters.scanned + 1;
        match Eval.match_tuple env atom tuple with
        | Some env' -> interpret_body st ~consumer rest env' emit
        | None -> ())
      candidates
  | Literal.Neg atom :: rest ->
    let tuple = Eval.ground_tuple env atom in
    let pred = Atom.pred atom in
    let holds =
      if Program.is_idb st.program pred then decide_negation st pred tuple
      else not (Database.mem st.edb pred tuple)
    in
    if holds then interpret_body st ~consumer rest env emit
  | Literal.Cmp (op, t1, t2) :: rest -> (
    let r1 = Eval.Cenv.resolve_term env t1
    and r2 = Eval.Cenv.resolve_term env t2 in
    match op, r1, r2 with
    | _, Eval.Cenv.Bound c1, Eval.Cenv.Bound c2 ->
      if Code.eval_cmp op c1 c2 then interpret_body st ~consumer rest env emit
    | Literal.Eq, Eval.Cenv.Free v, Eval.Cenv.Bound c
    | Literal.Eq, Eval.Cenv.Bound c, Eval.Cenv.Free v ->
      interpret_body st ~consumer rest (Eval.Cenv.bind v c env) emit
    | _, _, _ ->
      raise
        (Eval.Unsafe_rule
           (Format.asprintf "comparison with unbound variable: %a" Literal.pp
              (Literal.Cmp
                 (op, Eval.term_of_resolved r1, Eval.term_of_resolved r2)))))

(* The compiled analogue of one [solve_call] rule: walk the plan's ops,
   with [Table] ops doing exactly what the interpreter's IDB case does
   (ensure the sub-call, register the consumer, scan the whole table) and
   EDB probes keeping the interpreter's accounting (the probe counts even
   when the relation is missing, and the profile records a 0-wide scan). *)
and run_plan st ~consumer (init, (plan : Plan.t)) c emit_tuple =
  let regs = Plan.make_regs plan in
  (* unify the call's bound codes with the head pattern *)
  let rec init_ok i bound =
    match bound with
    | [] -> true
    | (_, v) :: rest -> (
      match snd init.(i) with
      | Plan.Store r ->
        regs.(r) <- v;
        init_ok (i + 1) rest
      | Plan.Check r -> Code.equal regs.(r) v && init_ok (i + 1) rest
      | Plan.Match c0 -> Code.equal c0 v && init_ok (i + 1) rest)
  in
  if init_ok 0 c.bound then begin
    let nops = Array.length plan.Plan.ops in
    let profiling = Profile.is_active st.profile in
    let rec step k =
      if k = nops then begin
        st.counters.Counters.firings <- st.counters.Counters.firings + 1;
        if not plan.Plan.head_safe then Plan.raise_unsafe_head plan regs;
        emit_tuple (Plan.values regs plan.Plan.head)
      end
      else
        match plan.Plan.ops.(k) with
        | Plan.Table { pred; key; out; _ } ->
          let sub =
            { call_pred = pred;
              bound =
                List.map
                  (fun (i, s) -> (i, Plan.src_value regs s))
                  (Array.to_list key)
            }
          in
          let rel = ensure_call st sub in
          register_consumer st ~producer:sub ~consumer;
          st.counters.Counters.probes <- st.counters.Counters.probes + 1;
          if profiling then
            Profile.probe st.profile pred ~scanned:(Relation.cardinal rel);
          scan k out rel
        | Plan.Probe { pred; access; key; out; _ } -> (
          st.counters.Counters.probes <- st.counters.Counters.probes + 1;
          match Database.find st.edb pred with
          | None -> if profiling then Profile.probe st.profile pred ~scanned:0
          | Some rel ->
            let kv = Plan.values regs key in
            let candidates, width = Relation.probe rel access kv in
            if profiling then Profile.probe st.profile pred ~scanned:width;
            each k out candidates)
        | Plan.Scan { pred; out; _ } -> (
          st.counters.Counters.probes <- st.counters.Counters.probes + 1;
          match Database.find st.edb pred with
          | None -> if profiling then Profile.probe st.profile pred ~scanned:0
          | Some rel ->
            if profiling then
              Profile.probe st.profile pred ~scanned:(Relation.cardinal rel);
            scan k out rel)
        | Plan.Negtest { pred; args } ->
          let tuple = Plan.values regs args in
          let holds =
            if Program.is_idb st.program pred then
              decide_negation st pred tuple
            else not (Database.mem st.edb pred tuple)
          in
          if holds then step (k + 1)
        | Plan.Cmptest { cmp; lhs; rhs } ->
          if
            Code.eval_cmp cmp (Plan.src_value regs lhs)
              (Plan.src_value regs rhs)
          then step (k + 1)
        | Plan.Assign { reg; value } ->
          regs.(reg) <- Plan.src_value regs value;
          step (k + 1)
        | Plan.Mergejoin _ ->
          (* [compile_call] never fuses scan+probe pairs *)
          assert false
        | Plan.Unsafe_neg { pred; args } ->
          Plan.raise_unsafe_neg plan regs pred args
        | Plan.Unsafe_cmp { cmp; lhs; rhs } ->
          Plan.raise_unsafe_cmp plan regs cmp lhs rhs
    and candidate k out tuple =
      Limits.check st.guard;
      st.counters.Counters.scanned <- st.counters.Counters.scanned + 1;
      if Plan.match_out regs out tuple then step (k + 1)
    and each k out = function
      | [] -> ()
      | tuple :: rest ->
        candidate k out tuple;
        each k out rest
    (* the snapshot of {!Relation.iter}: answers a nested call adds to
       [rel] during the walk are not visited *)
    and scan k out rel = Relation.iter (candidate k out) rel
    in
    step 0
  end

and plan_for ps c src_rule =
  let key = (src_rule, call_binding c) in
  match Hashtbl.find_opt ps.cache key with
  | Some cp -> cp
  | None ->
    let cp =
      Plan.compile_call ps.cfg ~card:ps.card ~is_idb:ps.is_idb
        ~bound_prefix:(List.map fst c.bound) src_rule
    in
    Hashtbl.add ps.cache key cp;
    cp

and solve_call st c =
  let rel = ensure_call st c in
  List.iter
    (fun src_rule ->
      (* profile rows are keyed on the source rule, not its renamed copy,
         so re-solvings of different calls aggregate onto one row *)
      Profile.with_rule st.profile st.counters src_rule @@ fun () ->
      let emit_tuple tuple =
        if Relation.insert rel tuple then begin
          st.counters.Counters.facts_derived <-
            st.counters.Counters.facts_derived + 1;
          Profile.derived st.profile c.call_pred;
          if Limits.is_active st.guard then Limits.check_relation st.guard rel;
          (* wake everyone who read this table *)
          match CallTbl.find_opt st.consumers c with
          | None -> ()
          | Some bucket -> List.iter (schedule st) !bucket
        end
      in
      match st.plans with
      | Some ps -> run_plan st ~consumer:c (plan_for ps c src_rule) c emit_tuple
      | None -> (
        (* rename apart from any variables the call could mention (calls
           are ground on their bound positions, so a plain fresh copy
           suffices) *)
        let rule = Rule.rename ~suffix:"#t" src_rule in
        let head = Rule.head rule in
        (* constrain the head by the call's bound codes *)
        let env0 =
          List.fold_left
            (fun acc (i, cv) ->
              match acc with
              | None -> None
              | Some env -> (
                match Eval.Cenv.resolve_term env (Atom.args head).(i) with
                | Eval.Cenv.Bound c0 ->
                  if Code.equal c0 cv then Some env else None
                | Eval.Cenv.Free v -> Some (Eval.Cenv.bind v cv env)))
            (Some Eval.Cenv.empty) c.bound
        in
        match env0 with
        | None -> ()
        | Some env0 ->
          interpret_body st ~consumer:c (Rule.body rule) env0 (fun env ->
              st.counters.Counters.firings <-
                st.counters.Counters.firings + 1;
              let tuple =
                Array.map
                  (fun t ->
                    match Eval.Cenv.resolve_term env t with
                    | Eval.Cenv.Bound cv -> cv
                    | Eval.Cenv.Free _ ->
                      raise
                        (Eval.Unsafe_rule
                           (Format.asprintf "derived non-ground answer %a"
                              Atom.pp
                              (Eval.Cenv.apply_atom env head))))
                  (Atom.args head)
              in
              emit_tuple tuple)))
    (Program.rules_for st.program c.call_pred)

and saturate st =
  let rec drain () =
    match st.agenda with
    | [] -> ()
    | c :: rest ->
      st.agenda <- rest;
      CallTbl.remove st.dirty c;
      st.counters.Counters.iterations <- st.counters.Counters.iterations + 1;
      Limits.check_round st.guard;
      solve_call st c;
      Checkpoint.on_step st.ckpt ~db:st.edb ~tables:(dump_tables st);
      drain ()
  in
  drain ()

(* Read the query's answers and the accumulated tables out of a state —
   shared by the completed and the budget-exhausted paths. *)
let collect st root query status =
  let answers =
    match CallTbl.find_opt st.tables root with
    | None -> []
    | Some rel -> Relation.matching rel (Tuple.pattern query)
  in
  let calls = List.rev st.order in
  let tables =
    List.map
      (fun c ->
        ( c,
          match CallTbl.find_opt st.tables c with
          | None -> []
          | Some rel -> Relation.to_list rel ))
      calls
  in
  { answers; calls; tables; counters = st.counters; status }

let run ?(limits = Limits.none) ?(profile = Profile.none)
    ?(checkpoint = Checkpoint.none) ?resume_from ?db ?plan program query =
  let has_negation =
    List.exists (fun r -> Rule.negative_body r <> []) (Program.rules program)
  in
  if has_negation && not (Stratify.is_stratified program) then
    Error "tabled evaluation requires a stratified program"
  else begin
    let edb = match db with Some db -> db | None -> Database.create () in
    List.iter (fun a -> ignore (Database.add_atom edb a)) (Program.facts program);
    let counters = Counters.create () in
    let st =
      { program;
        edb;
        counters;
        guard = Limits.guard limits counters;
        profile;
        tables = CallTbl.create 64;
        consumers = CallTbl.create 64;
        dirty = CallTbl.create 64;
        agenda = [];
        order = [];
        neg_memo = GroundTbl.create 64;
        ckpt = checkpoint;
        plans =
          Option.map
            (fun cfg ->
              { cfg;
                cache = Hashtbl.create 64;
                card = (fun p -> Database.cardinal edb p);
                is_idb = (fun p -> Program.is_idb program p)
              })
            plan
      }
    in
    Checkpoint.set_counters checkpoint counters;
    Checkpoint.set_evaluator checkpoint "tabled";
    (match resume_from with
    | None -> ()
    | Some r ->
      (* tables are monotone, so reinstalling them and re-scheduling every
         call (ensure_call marks each dirty) saturates to exactly the
         answers of an uninterrupted run; the checkpoint's bound patterns
         are values — re-encode them into this process's codes *)
      Checkpoint.adopt checkpoint r ~db:edb ~counters;
      List.iter
        (fun (pred, bound, tuples) ->
          let c =
            { call_pred = pred;
              bound = List.map (fun (i, v) -> (i, Code.of_value v)) bound
            }
          in
          let rel = ensure_call st c in
          List.iter (fun t -> ignore (Relation.insert rel t)) tuples)
        r.Checkpoint.r_tables);
    let root = call_of_atom Eval.Cenv.empty query in
    let qpred = Atom.pred query in
    if not (Program.is_idb program qpred) then begin
      (* extensional query: answer directly, no tables *)
      let answers =
        match Database.find edb qpred with
        | None -> []
        | Some rel -> Relation.matching rel (Tuple.pattern query)
      in
      Ok
        { answers;
          calls = [];
          tables = [];
          counters = st.counters;
          status = Limits.Complete
        }
    end
    else
      match
        ignore (ensure_call st root);
        saturate st
      with
      | () -> Ok (collect st root query Limits.Complete)
      | exception Limits.Out_of_budget reason ->
        (* tables are monotone, so everything accumulated so far is a
           sound partial answer set *)
        Checkpoint.on_interrupt_tables st.ckpt ~db:st.edb
          ~tables:(dump_tables st);
        Ok (collect st root query (Limits.Exhausted reason))
      | exception Eval.Unsafe_rule msg -> Error msg
  end

let calls_for outcome pred binding =
  List.length
    (List.filter
       (fun c -> Pred.equal c.call_pred pred && call_binding c = binding)
       outcome.calls)

(* distinct answers across all calls of the adornment: different calls can
   in principle produce overlapping answer tuples, and the rewritten
   program's ans_p^a relation is their set union *)
let answers_for (outcome : outcome) pred binding =
  let seen = Tuple.Tbl.create 64 in
  List.iter
    (fun (c, tuples) ->
      if Pred.equal c.call_pred pred && call_binding c = binding then
        List.iter (fun t -> Tuple.Tbl.replace seen t ()) tuples)
    outcome.tables;
  Tuple.Tbl.length seen

open Datalog_ast
open Datalog_storage

(* A plan is the one-time compilation of a rule body: join order fixed, one
   register per variable (aliases from [=] share a register), and for every
   positive literal a static split of its argument positions into an index
   key (constants and already-bound registers, served by a pre-resolved
   {!Relation.access} handle) and a residual pattern (stores into fresh
   registers, equality checks for repeated or bound ones).

   Boundness is decidable statically because every evaluator starts each
   rule application from the empty substitution: a variable is ground at a
   program point iff some earlier literal in the chosen order binds it. *)

module Sips = Datalog_analysis.Sips

type sip = Sips.strategy = Ltr | Cost

type src =
  | Sconst of Code.t
  | Sreg of int  (* statically bound register *)
  | Sunbound of int  (* statically unbound register: only in failing ops
                        and unsafe heads, never read for a value *)

(* What to do with one position of a fetched tuple. *)
type action =
  | Store of int  (* first occurrence of an unbound variable *)
  | Check of int  (* repeated variable, or bound register (tabled) *)
  | Match of Code.t  (* constant (full-scan residuals only) *)

type op =
  | Probe of {
      lit_pos : int;  (* original body position, the [rel_of] key *)
      pred : Pred.t;
      cols : int array;  (* ascending; mirrors the access handle *)
      access : Relation.access;
      key : src array;  (* values for [cols], same order; never Sunbound *)
      out : (int * action) array;  (* residual positions, ascending *)
    }
  | Scan of {
      lit_pos : int;
      pred : Pred.t;
      out : (int * action) array;
    }
  | Mergejoin of {
      (* a fused [Scan l; Probe r] pair: enumerate [l] in insertion order
         (exactly the scan's snapshot) and, per candidate, locate the
         matching group of [r] by galloping search in a sorted columnar
         projection instead of a hash probe.  Trace-identical to the
         unfused pair — same emissions in the same order, same [scanned]
         and firability — with [probes] counting 2 per execution instead
         of [1 + |l|]. *)
      l_lit_pos : int;
      l_pred : Pred.t;
      l_out : (int * action) array;
      r_lit_pos : int;
      r_pred : Pred.t;
      r_cols : int array;  (* ascending; mirrors the sorted handle *)
      r_sorted : Relation.sorted_access;
      r_key : src array;  (* values for [r_cols]; never Sunbound *)
      r_out : (int * action) array;
    }
  | Table of {
      (* tabled evaluation only: enumerate an IDB call table *)
      lit_pos : int;
      pred : Pred.t;
      key : (int * src) array;  (* bound positions -> call pattern *)
      out : (int * action) array;  (* every position, ascending *)
    }
  | Negtest of { pred : Pred.t; args : src array }  (* all bound *)
  | Cmptest of { cmp : Literal.cmp; lhs : src; rhs : src }  (* both bound *)
  | Assign of { reg : int; value : src }  (* [=] with one unbound side *)
  | Unsafe_neg of { pred : Pred.t; args : src array }
  | Unsafe_cmp of { cmp : Literal.cmp; lhs : src; rhs : src }

exception Unsafe_rule of string

type variant = Full | Delta of int | Call of string

type t = {
  rule : Rule.t;
  variant : variant;
  sip : sip;
  order : int list;  (* chosen literal order, as original positions *)
  nregs : int;
  names : string array;  (* register -> variable display name *)
  ops : op array;
  head_pred : Pred.t;
  head : src array;
  head_safe : bool;  (* no Sunbound in [head] *)
}

type info = {
  i_rule : string;
  i_variant : string;
  i_sip : string;
  i_order : int list;
  i_steps : string list;
}

type config = {
  sip : sip;
  merge : bool;  (* fuse scan+probe pairs into merge joins *)
  on_compile : (info -> unit) option;
}

let config ?(sip = Ltr) ?(merge = true) ?on_compile () =
  { sip; merge; on_compile }

(* ------------------------------------------------------------------ *)
(* Body order                                                          *)
(* ------------------------------------------------------------------ *)

(* Under [Ltr] the body is taken as given: the rewriter or [Preprocess]
   already ordered it, and hoisting a filter between a [Scan] and its
   [Probe] would only break merge-join fusion.  Under [Cost] the shared
   orderer decides, from the variables bound on entry. *)
let order_body sip ~card ?delta_pos ~bound body =
  match sip with
  | Ltr -> List.mapi (fun i l -> (i, l)) body
  | Cost -> Sips.order ~card ?first:delta_pos ~bound Cost body

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

type cenv = {
  regs : (string, int) Hashtbl.t;  (* variable -> raw register *)
  names : string array;
  parent : int array;  (* union-find for [=]-aliased registers *)
  bound : bool array;
  nregs : int;
}

let cenv_of_rule rule =
  let seen = Hashtbl.create 16 in
  let vars = ref [] in
  let note v =
    if not (Hashtbl.mem seen v) then begin
      Hashtbl.add seen v ();
      vars := v :: !vars
    end
  in
  List.iter (fun l -> List.iter note (Literal.vars l)) (Rule.body rule);
  List.iter note (Atom.vars (Rule.head rule));
  let vars = List.rev !vars in
  let n = List.length vars in
  let env =
    { regs = Hashtbl.create (max 8 n);
      names = Array.make (max 1 n) "_";
      parent = Array.init (max 1 n) (fun i -> i);
      bound = Array.make (max 1 n) false;
      nregs = n
    }
  in
  List.iteri
    (fun i v ->
      Hashtbl.add env.regs v i;
      env.names.(i) <- v)
    vars;
  env

let rec find env r =
  let p = env.parent.(r) in
  if p = r then r
  else begin
    let root = find env p in
    env.parent.(r) <- root;
    root
  end

let reg_of env v = find env (Hashtbl.find env.regs v)
let is_bound env r = env.bound.(r)
let set_bound env r = env.bound.(r) <- true

(* Alias two unbound registers (the [X = Y] case): every later mention of
   either variable resolves to the kept register.  Sound because an
   unbound register has never been read or written by an emitted op. *)
let alias env ~keep ~drop = env.parent.(drop) <- keep

let src_of_term env = function
  | Term.Const v -> Sconst (Code.of_value v)
  | Term.Var x ->
    let r = reg_of env x in
    if is_bound env r then Sreg r else Sunbound r

let is_src_bound = function Sconst _ | Sreg _ -> true | Sunbound _ -> false

(* Compile one positive literal over an extensional-style relation. *)
let compile_pos env lit_pos atom =
  let args = Atom.args atom in
  let key = ref [] and out = ref [] in
  let stored = ref [] in
  Array.iteri
    (fun i t ->
      match t with
      | Term.Const v -> key := (i, Sconst (Code.of_value v)) :: !key
      | Term.Var x ->
        let r = reg_of env x in
        if is_bound env r then key := (i, Sreg r) :: !key
        else if List.mem r !stored then out := (i, Check r) :: !out
        else begin
          stored := r :: !stored;
          out := (i, Store r) :: !out
        end)
    args;
  List.iter (set_bound env) !stored;
  let key = List.rev !key and out = Array.of_list (List.rev !out) in
  match key with
  | [] -> Scan { lit_pos; pred = Atom.pred atom; out }
  | _ ->
    let cols = List.map fst key in
    Probe
      { lit_pos;
        pred = Atom.pred atom;
        cols = Array.of_list cols;
        access = Relation.prepare cols;
        key = Array.of_list (List.map snd key);
        out
      }

(* Compile one positive IDB literal for tabled evaluation: the bound
   positions become the call pattern, and — because the tabled executor
   scans the whole answer table — the residual covers every position. *)
let compile_table env lit_pos atom =
  let args = Atom.args atom in
  let key = ref [] and out = ref [] in
  let stored = ref [] in
  Array.iteri
    (fun i t ->
      match t with
      | Term.Const v ->
        let c = Code.of_value v in
        key := (i, Sconst c) :: !key;
        out := (i, Match c) :: !out
      | Term.Var x ->
        let r = reg_of env x in
        if is_bound env r then begin
          key := (i, Sreg r) :: !key;
          out := (i, Check r) :: !out
        end
        else if List.mem r !stored then out := (i, Check r) :: !out
        else begin
          stored := r :: !stored;
          out := (i, Store r) :: !out
        end)
    args;
  List.iter (set_bound env) !stored;
  Table
    { lit_pos;
      pred = Atom.pred atom;
      key = Array.of_list (List.rev !key);
      out = Array.of_list (List.rev !out)
    }

let compile_neg env atom =
  let args = Array.map (src_of_term env) (Atom.args atom) in
  if Array.for_all is_src_bound args then
    Negtest { pred = Atom.pred atom; args }
  else Unsafe_neg { pred = Atom.pred atom; args }

let compile_cmp env cmp t1 t2 =
  let s1 = src_of_term env t1 and s2 = src_of_term env t2 in
  match cmp, s1, s2 with
  | _, (Sconst _ | Sreg _), (Sconst _ | Sreg _) ->
    [ Cmptest { cmp; lhs = s1; rhs = s2 } ]
  | Literal.Eq, Sunbound r, ((Sconst _ | Sreg _) as v)
  | Literal.Eq, ((Sconst _ | Sreg _) as v), Sunbound r ->
    set_bound env r;
    [ Assign { reg = r; value = v } ]
  | Literal.Eq, Sunbound r1, Sunbound r2 ->
    (* [=] aliases two unbound variables *)
    if r1 <> r2 then alias env ~keep:r1 ~drop:r2;
    []
  | _, _, _ -> [ Unsafe_cmp { cmp; lhs = s1; rhs = s2 } ]

(* ------------------------------------------------------------------ *)
(* Plan description (explain / stats JSON)                             *)
(* ------------------------------------------------------------------ *)

let src_str names = function
  | Sconst c -> Code.to_string c
  | Sreg r | Sunbound r -> names.(r)

let action_str names (pos, act) =
  match act with
  | Store r -> Printf.sprintf "%d:=%s" pos names.(r)
  | Check r -> Printf.sprintf "%d==%s" pos names.(r)
  | Match c -> Printf.sprintf "%d==%s" pos (Code.to_string c)

let joined f xs = String.concat "," (List.map f (Array.to_list xs))

let pred_str pred = Printf.sprintf "%s/%d" (Pred.name pred) (Pred.arity pred)

let describe_op names = function
  | Probe { pred; cols; key; out; _ } ->
    let keys =
      String.concat ","
        (List.map2
           (fun c s -> Printf.sprintf "%d=%s" c (src_str names s))
           (Array.to_list cols) (Array.to_list key))
    in
    Printf.sprintf "probe %s key[%s] match[%s]" (pred_str pred) keys
      (joined (action_str names) out)
  | Scan { pred; out; _ } ->
    Printf.sprintf "scan %s match[%s]" (pred_str pred)
      (joined (action_str names) out)
  | Mergejoin { l_pred; l_out; r_pred; r_cols; r_key; r_out; _ } ->
    let keys =
      String.concat ","
        (List.map2
           (fun c s -> Printf.sprintf "%d=%s" c (src_str names s))
           (Array.to_list r_cols) (Array.to_list r_key))
    in
    Printf.sprintf "merge %s match[%s] * %s key[%s] match[%s]"
      (pred_str l_pred)
      (joined (action_str names) l_out)
      (pred_str r_pred) keys
      (joined (action_str names) r_out)
  | Table { pred; key; out; _ } ->
    let keys =
      joined (fun (c, s) -> Printf.sprintf "%d=%s" c (src_str names s)) key
    in
    Printf.sprintf "call %s key[%s] match[%s]" (pred_str pred) keys
      (joined (action_str names) out)
  | Negtest { pred; args } ->
    Printf.sprintf "neg %s(%s)" (Pred.name pred) (joined (src_str names) args)
  | Cmptest { cmp; lhs; rhs } ->
    Printf.sprintf "test %s %s %s" (src_str names lhs) (Literal.cmp_name cmp)
      (src_str names rhs)
  | Assign { reg; value } ->
    Printf.sprintf "bind %s := %s" names.(reg) (src_str names value)
  | Unsafe_neg { pred; args } ->
    Printf.sprintf "unsafe neg %s(%s)" (Pred.name pred)
      (joined (src_str names) args)
  | Unsafe_cmp { cmp; lhs; rhs } ->
    Printf.sprintf "unsafe test %s %s %s" (src_str names lhs)
      (Literal.cmp_name cmp) (src_str names rhs)

let variant_str = function
  | Full -> "full"
  | Delta d -> Printf.sprintf "delta@%d" d
  | Call b -> Printf.sprintf "call[%s]" b

let info (plan : t) =
  let steps =
    List.map (describe_op plan.names) (Array.to_list plan.ops)
    @ [ Printf.sprintf "emit %s(%s)%s"
          (Pred.name plan.head_pred)
          (joined (src_str plan.names) plan.head)
          (if plan.head_safe then "" else " [unsafe]")
      ]
  in
  { i_rule = Format.asprintf "%a" Rule.pp plan.rule;
    i_variant = variant_str plan.variant;
    i_sip = Sips.strategy_name plan.sip;
    i_order = plan.order;
    i_steps = steps
  }

(* ------------------------------------------------------------------ *)
(* Compiler entry points                                               *)
(* ------------------------------------------------------------------ *)

let finish cfg ~variant ~env ~ops ~order rule =
  let head = Rule.head rule in
  let hsrc = Array.map (src_of_term env) (Atom.args head) in
  let plan =
    { rule;
      variant;
      sip = cfg.sip;
      order;
      nregs = env.nregs;
      names = env.names;
      ops = Array.of_list ops;
      head_pred = Atom.pred head;
      head = hsrc;
      head_safe = Array.for_all is_src_bound hsrc
    }
  in
  Option.iter (fun f -> f (info plan)) cfg.on_compile;
  plan

(* Fuse each adjacent [Scan l; Probe r] pair into one galloping merge
   join against [r]'s sorted projection.  The fusion is sound — i.e.
   trace-identical to the unfused pair — only when [r] cannot change
   while this rule application runs: the sorted side is a start-of-op
   snapshot, whereas a hash probe reads the live index.  A rule
   application only ever writes its own head predicate, so any non-head
   [r] is frozen; the delta literal of a semi-naive specialization is
   frozen even when it names the head, because deltas are never written
   mid-round. *)
let fuse_merge ~variant ~head_pred ops =
  let frozen r_pred r_lit_pos =
    (match variant with
    | Delta d -> r_lit_pos = d
    | Full | Call _ -> false)
    || not (Pred.equal r_pred head_pred)
  in
  let rec go = function
    | Scan { lit_pos = l_lit_pos; pred = l_pred; out = l_out }
      :: Probe { lit_pos = r_lit_pos; pred = r_pred; cols; key; out = r_out; _ }
      :: rest
      when frozen r_pred r_lit_pos ->
      Mergejoin
        { l_lit_pos;
          l_pred;
          l_out;
          r_lit_pos;
          r_pred;
          r_cols = cols;
          r_sorted = Relation.prepare_sorted (Array.to_list cols);
          r_key = key;
          r_out
        }
      :: go rest
    | op :: rest -> op :: go rest
    | [] -> []
  in
  go ops

(* Compile [rule] for the fixpoint-style evaluators (the semantics of the
   left-to-right interpreter in test/interp.ml).  [card] supplies
   relation cardinalities for the cost SIP; [delta_pos] compiles the semi-naive specialization whose literal at
   that original position reads the delta. *)
let compile cfg ~card ?delta_pos rule =
  let ordered =
    order_body cfg.sip ~card ?delta_pos ~bound:(fun _ -> false)
      (Rule.body rule)
  in
  let env = cenv_of_rule rule in
  let ops =
    List.concat_map
      (fun (i, lit) ->
        match lit with
        | Literal.Pos a -> [ compile_pos env i a ]
        | Literal.Neg a -> [ compile_neg env a ]
        | Literal.Cmp (c, t1, t2) -> compile_cmp env c t1 t2)
      ordered
  in
  let variant =
    match delta_pos with None -> Full | Some d -> Delta d
  in
  let ops =
    if cfg.merge then
      fuse_merge ~variant ~head_pred:(Atom.pred (Rule.head rule)) ops
    else ops
  in
  finish cfg ~variant ~env ~ops ~order:(List.map fst ordered) rule

(* Compile [rule] for tabled evaluation of calls with the given bound head
   positions: head variables at bound positions enter pre-bound (their
   values come from the call) and IDB body literals become [Table] ops. *)
let compile_call cfg ~card ~is_idb ~bound_prefix rule =
  let env = cenv_of_rule rule in
  let head_args = Atom.args (Rule.head rule) in
  (* per bound position: check a head constant, or set/check the head
     variable's register from the call value *)
  let init =
    List.map
      (fun pos ->
        match head_args.(pos) with
        | Term.Const v -> (pos, Match (Code.of_value v))
        | Term.Var x ->
          let r = reg_of env x in
          if is_bound env r then (pos, Check r)
          else begin
            set_bound env r;
            (pos, Store r)
          end)
      bound_prefix
  in
  (* the call's bound head variables are bound on entry *)
  let ordered =
    order_body cfg.sip ~card
      ~bound:(fun v -> is_bound env (reg_of env v))
      (Rule.body rule)
  in
  let ops =
    List.concat_map
      (fun (i, lit) ->
        match lit with
        | Literal.Pos a ->
          if is_idb (Atom.pred a) then [ compile_table env i a ]
          else [ compile_pos env i a ]
        | Literal.Neg a -> [ compile_neg env a ]
        | Literal.Cmp (c, t1, t2) -> compile_cmp env c t1 t2)
      ordered
  in
  let binding =
    String.init
      (Array.length head_args)
      (fun i -> if List.mem i bound_prefix then 'b' else 'f')
  in
  let plan =
    finish cfg ~variant:(Call binding) ~env ~ops
      ~order:(List.map fst ordered) rule
  in
  (Array.of_list init, plan)

(* Reorder a rule body without compiling it (the conditional engine keeps
   its condition-set interpreter but still benefits from the SIP). *)
let reorder cfg ~card rule =
  match cfg.sip with
  | Ltr -> rule
  | Cost ->
    let ordered =
      Sips.order ~card ~bound:(fun _ -> false) Cost (Rule.body rule)
    in
    let order = List.map fst ordered in
    let rule' = Rule.make (Rule.head rule) (List.map snd ordered) in
    Option.iter
      (fun f ->
        f
          { i_rule = Format.asprintf "%a" Rule.pp rule;
            i_variant = "reorder";
            i_sip = Sips.strategy_name Cost;
            i_order = order;
            i_steps =
              [ Printf.sprintf "body order [%s]"
                  (String.concat "," (List.map string_of_int order))
              ]
          })
      cfg.on_compile;
    rule'

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

let src_value (regs : Code.t array) = function
  | Sconst c -> c
  | Sreg r -> regs.(r)
  | Sunbound _ -> assert false  (* never read: guarded by head_safe /
                                   compiled as Unsafe_* ops *)

let term_of_src names (regs : Code.t array) = function
  | Sconst c -> Term.const (Code.to_value c)
  | Sreg r -> Term.const (Code.to_value regs.(r))
  | Sunbound r -> Term.var names.(r)

let unsafe_neg_atom (plan : t) regs pred args =
  Atom.make pred (Array.map (term_of_src plan.names regs) args)

let raise_unsafe_neg (plan : t) regs pred args =
  raise
    (Unsafe_rule
       (Format.asprintf "negative literal %a not ground at evaluation time"
          Atom.pp
          (unsafe_neg_atom plan regs pred args)))

let raise_unsafe_cmp (plan : t) regs cmp lhs rhs =
  let t1 = term_of_src plan.names regs lhs
  and t2 = term_of_src plan.names regs rhs in
  raise
    (Unsafe_rule
       (Format.asprintf "comparison %a with unbound variable" Literal.pp
          (Literal.Cmp (cmp, t1, t2))))

let raise_unsafe_head (plan : t) regs =
  let h =
    Atom.make plan.head_pred (Array.map (term_of_src plan.names regs) plan.head)
  in
  raise
    (Unsafe_rule
       (Format.asprintf "derived non-ground head %a in rule %a" Atom.pp h
          Rule.pp plan.rule))

(* Match one tuple against a residual pattern, storing fresh bindings.
   Stores need no undo on failure: each register has exactly one static
   binder, so any read is dominated by a (re-)store.  A top-level
   recursion: a local one would build a closure per candidate tuple. *)
let rec match_from (regs : Code.t array) (out : (int * action) array)
    (tuple : Tuple.t) i =
  i >= Array.length out
  ||
  let pos, act = out.(i) in
  match act with
  | Store r ->
    regs.(r) <- tuple.(pos);
    match_from regs out tuple (i + 1)
  | Check r -> regs.(r) = tuple.(pos) && match_from regs out tuple (i + 1)
  | Match c -> c = tuple.(pos) && match_from regs out tuple (i + 1)

let match_out regs out tuple = match_from regs out tuple 0

(* [Array.map (src_value regs) srcs], without the closure. *)
let values regs (srcs : src array) : Code.t array =
  let n = Array.length srcs in
  if n = 0 then [||]
  else begin
    let a = Array.make n (src_value regs srcs.(0)) in
    for i = 1 to n - 1 do
      a.(i) <- src_value regs srcs.(i)
    done;
    a
  end

(* The galloping search of a merge join, over the sorted side's
   column-major keys [keys] and the probe key, both as plain ints: [p0]
   is the probe's first code, read once per outer row, and [probe] the
   whole key, copied once per outer row (a one-column key, which every
   binary chain has, never reads it).  Top-level recursions, so that a
   search allocates nothing and no closure is built per application. *)
let rec cmp_rest (keys : Code.t array array) (probe : Code.t array) i j =
  if j >= Array.length probe then 0
  else
    let c = Code.compare keys.(j).(i) probe.(j) in
    if c <> 0 then c else cmp_rest keys probe i (j + 1)

(* The order of the key at sorted position [i] relative to the probe. *)
let cmp_at keys (p0 : Code.t) probe i =
  let k = keys.(0).(i) in
  if k < p0 then -1 else if k > p0 then 1 else cmp_rest keys probe i 1

(* [above strict i]: is the key at [i] past the probe key?  ([>] when
   strict, [>=] otherwise.)  Monotone in [i]. *)
let above keys p0 probe strict i =
  let c = cmp_at keys p0 probe i in
  if strict then c > 0 else c >= 0

(* not (above lo); hi = n or above hi *)
let rec bisect keys p0 probe strict lo hi =
  if hi - lo <= 1 then hi
  else
    let mid = (lo + hi) / 2 in
    if above keys p0 probe strict mid then bisect keys p0 probe strict lo mid
    else bisect keys p0 probe strict mid hi

let rec widen keys p0 probe n strict lo step =
  if lo + step < n && not (above keys p0 probe strict (lo + step)) then
    widen keys p0 probe n strict (lo + step) (2 * step)
  else bisect keys p0 probe strict lo (min n (lo + step))

(* The first index in [[base, n)] where [above strict] holds, by
   exponential probing then bisection. *)
let gallop keys p0 probe n strict base =
  if base >= n then n
  else if above keys p0 probe strict base then base
  else widen keys p0 probe n strict base 1

(* The group of sorted rows equal to the current probe key, [[lo, hi)],
   and the number of gallops that found it so far. *)
type group = {
  mutable lo : int;
  mutable hi : int;
  mutable gallops : int;
}

(* Position [g] on the run of rows equal to the probe key.  Adaptivity:
   an unchanged key reuses the group outright, and an ascended key
   resumes the gallop from the previous group's end instead of from 0. *)
let locate g keys p0 probe n =
  if g.lo < g.hi && cmp_at keys p0 probe g.lo = 0 then ()
  else begin
    let base =
      if g.hi > 0 && cmp_at keys p0 probe (g.hi - 1) < 0 then g.hi else 0
    in
    let lo = gallop keys p0 probe n false base in
    g.gallops <- g.gallops + 1;
    let hi =
      if lo = n || cmp_at keys p0 probe lo > 0 then lo
      else begin
        g.gallops <- g.gallops + 1;
        gallop keys p0 probe n true lo
      end
    in
    g.lo <- lo;
    g.hi <- hi
  end

let dummy_value : Code.t = Code.of_int 0

let make_regs (plan : t) = Array.make (max plan.nregs 1) dummy_value

(* Run a compiled plan once (one rule application): counter-for-counter
   equivalent to interpreting the rule with the left-to-right
   interpreter (test/interp.ml).  Relations are resolved once up front — sound because a missed mid-application
   relation creation would require this very rule to have already matched
   a tuple of a relation that did not exist. *)
let run (plan : t) cnt ?(guard = Limits.no_guard) ?(profile = Profile.none) ~rel_of
    ~neg emit =
  let nops = Array.length plan.ops in
  let rels = Array.make (max nops 1) None in
  let rels2 = Array.make (max nops 1) None in
  Array.iteri
    (fun k op ->
      match op with
      | Probe { lit_pos; pred; _ } | Scan { lit_pos; pred; _ } ->
        rels.(k) <- rel_of lit_pos pred
      | Mergejoin { l_lit_pos; l_pred; r_lit_pos; r_pred; _ } ->
        rels.(k) <- rel_of l_lit_pos l_pred;
        rels2.(k) <- rel_of r_lit_pos r_pred
      | Table _ -> invalid_arg "Plan.run: Table op outside tabled evaluation"
      | Negtest _ | Cmptest _ | Assign _ | Unsafe_neg _ | Unsafe_cmp _ -> ())
    plan.ops;
  let regs = make_regs plan in
  let profiling = Profile.is_active profile in
  let rec step k =
    if k = nops then begin
      Limits.check_derived guard;
      cnt.Counters.firings <- cnt.Counters.firings + 1;
      if not plan.head_safe then raise_unsafe_head plan regs;
      emit plan.head_pred (values regs plan.head)
    end
    else
      match plan.ops.(k) with
      | Probe { pred; access; key; out; _ } -> (
        match rels.(k) with
        | None -> ()
        | Some rel ->
          cnt.Counters.probes <- cnt.Counters.probes + 1;
          let kv = values regs key in
          let candidates, width = Relation.probe rel access kv in
          if profiling then Profile.probe profile pred ~scanned:width;
          each k out candidates)
      | Scan { pred; out; _ } -> (
        match rels.(k) with
        | None -> ()
        | Some rel ->
          cnt.Counters.probes <- cnt.Counters.probes + 1;
          if profiling then
            Profile.probe profile pred ~scanned:(Relation.cardinal rel);
          (* snapshot: [Relation.iter] does not visit tuples inserted
             during this scan, exactly like the interpreter's
             [select rel []] *)
          Relation.iter
            (fun tuple ->
              Limits.check guard;
              cnt.Counters.scanned <- cnt.Counters.scanned + 1;
              if match_out regs out tuple then step (k + 1))
            rel)
      | Mergejoin { l_pred; l_out; r_pred; r_sorted; r_key; r_out; _ } -> (
        match rels.(k) with
        | None -> ()
        | Some lrel -> (
          cnt.Counters.probes <- cnt.Counters.probes + 1;
          if profiling then
            Profile.probe profile l_pred ~scanned:(Relation.cardinal lrel);
          (* the outer side is walked as the Scan this fuses walks it *)
          match rels2.(k) with
          | None ->
            (* missing sorted side: the candidates are still scanned (as
               the unfused pair would), nothing joins *)
            Relation.iter
              (fun tuple ->
                Limits.check guard;
                cnt.Counters.scanned <- cnt.Counters.scanned + 1;
                ignore (match_out regs l_out tuple))
              lrel
          | Some rrel ->
            cnt.Counters.probes <- cnt.Counters.probes + 1;
            cnt.Counters.merge_steps <- cnt.Counters.merge_steps + 1;
            let view = Relation.sorted_view rrel r_sorted in
            let rows = view.Relation.sv_rows in
            let keys = view.Relation.sv_keys in
            let n = view.Relation.sv_len in
            let probe = Array.make (Array.length r_key) dummy_value in
            let g = { lo = 0; hi = 0; gallops = 0 } in
            let inspected = ref 0 in
            let each_left tuple =
              Limits.check guard;
              cnt.Counters.scanned <- cnt.Counters.scanned + 1;
              if match_out regs l_out tuple then begin
                for j = 0 to Array.length r_key - 1 do
                  probe.(j) <- src_value regs r_key.(j)
                done;
                locate g keys probe.(0) probe n;
                for i = g.lo to g.hi - 1 do
                  Limits.check guard;
                  cnt.Counters.scanned <- cnt.Counters.scanned + 1;
                  incr inspected;
                  if match_out regs r_out rows.(i) then step (k + 1)
                done
              end
            in
            (* the sorted-side profile entry is recorded once, on abort
               too, so per-pred probes/scanned still sum to the totals *)
            let record () =
              cnt.Counters.gallops <- cnt.Counters.gallops + g.gallops;
              if profiling then begin
                Profile.probe profile r_pred ~scanned:!inspected;
                Profile.merge profile r_pred ~gallops:g.gallops
              end
            in
            (match Relation.iter each_left lrel with
            | () -> record ()
            | exception e ->
              record ();
              raise e)))
      | Table _ -> assert false
      | Negtest { pred; args } ->
        if neg pred (values regs args) then step (k + 1)
      | Cmptest { cmp; lhs; rhs } ->
        if Code.eval_cmp cmp (src_value regs lhs) (src_value regs rhs) then
          step (k + 1)
      | Assign { reg; value } ->
        regs.(reg) <- src_value regs value;
        step (k + 1)
      | Unsafe_neg { pred; args } -> raise_unsafe_neg plan regs pred args
      | Unsafe_cmp { cmp; lhs; rhs } -> raise_unsafe_cmp plan regs cmp lhs rhs
  and each k out = function
    | [] -> ()
    | tuple :: rest ->
      Limits.check guard;
      cnt.Counters.scanned <- cnt.Counters.scanned + 1;
      if match_out regs out tuple then step (k + 1);
      each k out rest
  in
  step 0

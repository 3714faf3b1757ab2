open Datalog_ast
open Datalog_storage

type outcome = {
  true_db : Database.t;
  undefined : Atom.t list;
  residual : (Atom.t * Atom.t list) list;
  statements_generated : int;
  counters : Counters.t;
  status : Limits.status;
}

(* A condition set: the atoms whose absence a derivation awaits, each
   interned per run as a small int.  The set is a bitset, one bit per id
   across [int] words, with no trailing zero word (so the empty set is
   [[||]]): the antichain's subset tests and the body's unions are word
   operations. *)
module Cond = struct
  type t = int array

  let bits = Sys.int_size
  let empty : t = [||]
  let is_empty (c : t) = Array.length c = 0

  (* the hot test of the antichain: no closure *)
  let rec subset_from (a : t) (b : t) i =
    i < 0 || (a.(i) land lnot b.(i) = 0 && subset_from a b (i - 1))

  let subset (a : t) (b : t) =
    Array.length a <= Array.length b && subset_from a b (Array.length a - 1)

  let union (a : t) (b : t) : t =
    if subset b a then a
    else if subset a b then b
    else begin
      let a, b = if Array.length a >= Array.length b then (a, b) else (b, a) in
      let r = Array.copy a in
      for i = 0 to Array.length b - 1 do
        r.(i) <- r.(i) lor b.(i)
      done;
      r
    end

  let mem id (c : t) =
    let k = id / bits in
    k < Array.length c && c.(k) land (1 lsl (id mod bits)) <> 0

  let add id (c : t) : t =
    if mem id c then c
    else
      let k = id / bits in
      let r = Array.make (max (Array.length c) (k + 1)) 0 in
      Array.blit c 0 r 0 (Array.length c);
      r.(k) <- r.(k) lor (1 lsl (id mod bits));
      r

  let elements (c : t) =
    let acc = ref [] in
    for id = (Array.length c * bits) - 1 downto 0 do
      if mem id c then acc := id :: !acc
    done;
    !acc

  let exists f c = List.exists f (elements c)
  let cardinal c = List.length (elements c)

  let filter f c =
    List.fold_left (fun acc id -> add id acc) empty
      (List.filter f (elements c))
end

(* The store maps each derived ground atom to a minimal antichain of
   condition sets.  An unconditional fact is an entry containing the
   empty condition set.  Each condition set carries the stamp of its
   insertion (the store's insert count right after it), which tells the
   semi-naive evaluation old entries from new. *)
module Store = struct
  (* [order] holds the predicate's entries newest first, the order
     [candidates] and [fold] enumerate them in, so that no counter and no
     residual order depends on {!Tuple.hash}; [latest] is the newest stamp
     of the entries; [listing] is the last [candidates] answer, dropped
     when the entries change: probes far outnumber inserts *)
  type entries = {
    tbl : (Cond.t * int) list ref Tuple.Tbl.t;
    mutable order : (Tuple.t * (Cond.t * int) list ref) list;
    mutable latest : int;
    mutable listing : (Tuple.t * (Cond.t * int) list) list option;
  }

  type t = {
    by_pred : entries Pred.Tbl.t;
    mutable inserts : int;
  }

  let create () = { by_pred = Pred.Tbl.create 32; inserts = 0 }

  let entries store pred =
    match Pred.Tbl.find_opt store.by_pred pred with
    | Some e -> e
    | None ->
      let e =
        { tbl = Tuple.Tbl.create 64; order = []; latest = 0; listing = None }
      in
      Pred.Tbl.add store.by_pred pred e;
      e

  let rec subsumed cond = function
    | [] -> false
    | (c, _) :: rest -> Cond.subset c cond || subsumed cond rest

  (* Insert with subsumption; returns true when the store grew (a new
     tuple, or a condition set not subsumed by an existing one). *)
  let insert store pred tuple cond =
    let e = entries store pred in
    let stamped () =
      store.inserts <- store.inserts + 1;
      e.latest <- store.inserts;
      e.listing <- None;
      (cond, store.inserts)
    in
    match Tuple.Tbl.find_opt e.tbl tuple with
    | None ->
      let conds = ref [ stamped () ] in
      Tuple.Tbl.add e.tbl tuple conds;
      e.order <- (tuple, conds) :: e.order;
      true
    | Some conds ->
      if subsumed cond !conds then false
      else begin
        conds :=
          stamped ()
          :: List.filter (fun (c, _) -> not (Cond.subset cond c)) !conds;
        true
      end

  (* is the tuple derived with the empty condition? *)
  let holds store pred tuple =
    match Pred.Tbl.find_opt store.by_pred pred with
    | None -> false
    | Some e -> (
      match Tuple.Tbl.find_opt e.tbl tuple with
      | None -> false
      | Some conds -> List.exists (fun (c, _) -> Cond.is_empty c) !conds)

  (* the tuple's condition sets now *)
  let conds_of store pred tuple =
    match Pred.Tbl.find_opt store.by_pred pred with
    | None -> []
    | Some e -> (
      match Tuple.Tbl.find_opt e.tbl tuple with
      | None -> []
      | Some conds -> !conds)

  let latest store pred =
    match Pred.Tbl.find_opt store.by_pred pred with
    | None -> 0
    | Some e -> e.latest

  let candidates store pred =
    match Pred.Tbl.find_opt store.by_pred pred with
    | None -> []
    | Some { listing = Some l; _ } -> l
    | Some e ->
      let l = List.map (fun (tuple, conds) -> (tuple, !conds)) e.order in
      e.listing <- Some l;
      l

  let fold store f init =
    Pred.Tbl.fold
      (fun pred e acc ->
        List.fold_left
          (fun acc (tuple, conds) -> f pred tuple (List.map fst !conds) acc)
          acc e.order)
      store.by_pred init
end

(* What a ground negative literal [not a] does to a derivation. *)
type verdict =
  | Holds  (** [a] is certainly false: the literal is discharged *)
  | Dead  (** [a] is certainly true: the branch generates nothing *)
  | Delay of int  (** undecided: [a]'s interned id joins the condition *)

(* A rule compiled for the condition-set interpreter: each variable is a
   slot of one mutable environment, bound while a choice is tried and
   unbound again when it is undone. *)
type arg = Const of Code.t | Slot of int

type step =
  | Pos of Pred.t * arg array
  | Neg of Atom.t * arg array
  | Cmp of Literal.cmp * Term.t * Term.t * arg * arg

type compiled = {
  rule : Rule.t;
  nslots : int;
  slot_of : (string, int) Hashtbl.t;
  steps : step list;
  head : arg array;
  positives : Pred.t array;  (* the positive literals' predicates *)
  mutable since : int;
      (* the store's insert count when the previous evaluation began *)
}

let compile rule =
  let slot_of = Hashtbl.create 8 in
  let arg = function
    | Term.Const v -> Const (Code.of_value v)
    | Term.Var v -> (
      match Hashtbl.find_opt slot_of v with
      | Some s -> Slot s
      | None ->
        let s = Hashtbl.length slot_of in
        Hashtbl.add slot_of v s;
        Slot s)
  in
  let args atom = Array.map arg (Atom.args atom) in
  let steps =
    List.map
      (function
        | Literal.Pos atom -> Pos (Atom.pred atom, args atom)
        | Literal.Neg atom -> Neg (atom, args atom)
        | Literal.Cmp (op, t1, t2) -> Cmp (op, t1, t2, arg t1, arg t2))
      (Rule.body rule)
  in
  let head = args (Rule.head rule) in
  let positives =
    Array.of_list
      (List.filter_map (function Pos (p, _) -> Some p | _ -> None) steps)
  in
  { rule; nslots = Hashtbl.length slot_of; slot_of; steps; head; positives;
    since = -1 }

(* [atom] with the environment's bound variables substituted: for
   error messages *)
let apply_atom c codes bound atom =
  Atom.make (Atom.pred atom)
    (Array.map
       (function
         | Term.Var v as t -> (
           match Hashtbl.find_opt c.slot_of v with
           | Some s when bound.(s) -> Term.const (Code.to_value codes.(s))
           | _ -> t)
         | t -> t)
       (Atom.args atom))

(* Solve a compiled rule's body against the store and [emit] each head
   tuple with its condition.  Positive literals branch over the
   (tuple, condition-set) choices; negative literals are decided by
   [negation]: over IDB predicates they are delayed into the accumulated
   condition, negative EDB literals and comparisons are decided
   immediately. *)
let apply_conditional cnt ~guard ~profile store ~negation c emit =
  let codes = Array.make c.nslots 0 in
  let bound = Array.make c.nslots false in
  let trail = Array.make c.nslots 0 in
  let top = ref 0 in
  let bind s code =
    codes.(s) <- code;
    bound.(s) <- true;
    trail.(!top) <- s;
    incr top
  in
  let undo mark =
    while !top > mark do
      decr top;
      bound.(trail.(!top)) <- false
    done
  in
  (* once the body has bound the whole head, a branch whose condition
     already contains one of the head's condition sets can only derive
     statements the store subsumes: [known] is that antichain, read into
     [head_buf] without allocating *)
  let head_pred = Atom.pred (Rule.head c.rule) in
  let head_buf = Array.make (Array.length c.head) 0 in
  let known () =
    let rec fill i =
      i >= Array.length c.head
      ||
      match c.head.(i) with
      | Const k ->
        head_buf.(i) <- k;
        fill (i + 1)
      | Slot s -> bound.(s) && (head_buf.(i) <- codes.(s); fill (i + 1))
    in
    if fill 0 then Store.conds_of store head_pred head_buf else []
  in
  (* bind [args]'s free slots to [tuple]; false on a clash *)
  let matches args (tuple : Tuple.t) =
    let n = Array.length args in
    let rec go i =
      i >= n
      ||
      match args.(i) with
      | Const k -> Code.equal k tuple.(i) && go (i + 1)
      | Slot s ->
        if bound.(s) then Code.equal codes.(s) tuple.(i) && go (i + 1)
        else begin
          bind s tuple.(i);
          go (i + 1)
        end
    in
    go 0
  in
  let ground what atom args =
    Array.map
      (function
        | Const k -> k
        | Slot s when bound.(s) -> codes.(s)
        | Slot _ ->
          raise
            (Plan.Unsafe_rule
               (Format.asprintf "%s %a" what Atom.pp
                  (apply_atom c codes bound atom))))
      args
  in
  let term_of t = function
    | Const k -> Term.const (Code.to_value k)
    | Slot s when bound.(s) -> Term.const (Code.to_value codes.(s))
    | Slot _ -> t
  in
  (* the variant being run takes its [variant]-th positive premise from
     the entries newer than [since] and the ones before it from the
     older entries *)
  let since = c.since and variant = ref 0 in
  let rec go steps p cond =
    match steps with
    | [] ->
      cnt.Counters.firings <- cnt.Counters.firings + 1;
      emit (ground "derived non-ground head" (Rule.head c.rule) c.head) cond
    | Pos (pred, args) :: rest ->
      cnt.Counters.probes <- cnt.Counters.probes + 1;
      let choices = Store.candidates store pred in
      if Profile.is_active profile then
        Profile.probe profile pred ~scanned:(List.length choices);
      let v = !variant in
      List.iter
        (fun (tuple, conds) ->
          Limits.check guard;
          cnt.Counters.scanned <- cnt.Counters.scanned + 1;
          let mark = !top in
          if matches args tuple then begin
            let known = known () in
            List.iter
              (fun (k, stamp) ->
                if if p < v then stamp <= since else p > v || stamp > since
                then
                  let cond = Cond.union cond k in
                  if not (Store.subsumed cond known) then go rest (p + 1) cond)
              conds
          end;
          undo mark)
        choices
    | Neg (atom, args) :: rest -> (
      let tuple = ground "negative literal" atom args in
      match negation (Atom.pred atom) tuple with
      | Holds -> go rest p cond
      | Dead -> ()
      | Delay id ->
        (* an atom the store already holds outright kills the branch:
           every statement it would generate is one the reduction
           deletes, and so is everything derived from those *)
        if not (Store.holds store (Atom.pred atom) tuple) then
          go rest p (Cond.add id cond))
    | Cmp (op, t1, t2, a1, a2) :: rest -> (
      let value = function
        | Const k -> Some k
        | Slot s -> if bound.(s) then Some codes.(s) else None
      in
      match op, value a1, value a2, a1, a2 with
      | _, Some k1, Some k2, _, _ ->
        if Code.eval_cmp op k1 k2 then go rest p cond
      | Literal.Eq, None, Some k, Slot s, _
      | Literal.Eq, Some k, None, _, Slot s ->
        let mark = !top in
        bind s k;
        go rest p cond;
        undo mark
      | _ ->
        raise
          (Plan.Unsafe_rule
             (Format.asprintf "comparison with unbound variable in %a"
                Literal.pp
                (Literal.Cmp (op, term_of t1 a1, term_of t2 a2)))))
  in
  (* Semi-naive: every derivation from entries no newer than [since] was
     made by an earlier evaluation of the rule (the first one has
     [since = -1]: all entries are new).  Variant [v] runs only when its
     premise's predicate has new entries; a rule without positive
     premises runs once. *)
  if since < 0 then go c.steps 0 Cond.empty
  else
    Array.iteri
      (fun v pred ->
        if Store.latest store pred > since then begin
          variant := v;
          go c.steps 0 Cond.empty
        end)
      c.positives

let run ?(limits = Limits.none) ?(profile = Profile.none)
    ?(plan = Plan.config ()) ?counters ?(oracle = fun _ -> `Undecided) ?db
    program =
  let counters =
    match counters with Some c -> c | None -> Counters.create ()
  in
  let guard = Limits.guard limits counters in
  let store = Store.create () in
  let seed = match db with Some db -> db | None -> Database.create () in
  List.iter (fun a -> ignore (Database.add_atom seed a)) (Program.facts program);
  (* The condition-set interpreter stays (delayed negation needs the
     store), but the SIP still applies: under a cost config each rule body
     is reordered once, against the seed cardinalities.  The answers are
     order-invariant; the work counters are not (the semi-naive variants
     follow the body order). *)
  let card = Database.cardinal seed in
  let rules =
    List.map
      (fun r -> compile (Plan.reorder plan ~card r))
      (Program.rules program)
  in
  Database.iter
    (fun pred rel ->
      Relation.iter
        (fun tuple -> ignore (Store.insert store pred tuple Cond.empty))
        rel)
    seed;
  let is_idb p = Program.is_idb program p in
  let statements = ref 0 in
  (* Each ground negated atom is decided once.  Delayed ones get the
     next condition id; [atoms] maps ids back for the reduction. *)
  let verdicts : verdict Tuple.Tbl.t Pred.Tbl.t = Pred.Tbl.create 16 in
  let atoms : (int, Atom.t) Hashtbl.t = Hashtbl.create 64 in
  let negation pred tuple =
    let tbl =
      match Pred.Tbl.find_opt verdicts pred with
      | Some t -> t
      | None ->
        let t = Tuple.Tbl.create 64 in
        Pred.Tbl.add verdicts pred t;
        t
    in
    match Tuple.Tbl.find_opt tbl tuple with
    | Some v -> v
    | None ->
      let v =
        if is_idb pred then begin
          let a = Tuple.to_atom pred tuple in
          match oracle a with
          | `False ->
            (* failure transformation: [a] is underivable even in the
               most generous interpretation, so [not a] holds outright *)
            Holds
          | `True ->
            (* success transformation: [a] is certainly true, the branch
               is dead — no statement is generated *)
            Dead
          | `Undecided ->
            let id = Hashtbl.length atoms in
            Hashtbl.add atoms id a;
            Delay id
        end
        else if Database.mem seed pred tuple then Dead
        else Holds
      in
      Tuple.Tbl.add tbl tuple v;
      v
  in
  let atom_of = Hashtbl.find atoms in
  (* Monotone fixpoint of the conditional immediate-consequence operator.
     On budget exhaustion the statements derived so far still go through
     the reduction phase, so the partial outcome is well-formed — but note
     that a truncated store can under-populate conditions, so partial
     truth values of non-stratified programs are best-effort (see
     docs/ROBUSTNESS.md). *)
  let status =
    match
      let changed = ref true in
      while !changed do
        changed := false;
        counters.Counters.iterations <- counters.Counters.iterations + 1;
        Limits.check_round guard;
        Profile.with_round profile counters (fun () ->
            List.iter
              (fun rule ->
                Profile.with_rule profile counters rule.rule (fun () ->
                    let start = store.Store.inserts in
                    apply_conditional counters ~guard ~profile store ~negation
                      rule (fun tuple cond ->
                        let head = Rule.head rule.rule in
                        if not (Cond.is_empty cond) then incr statements;
                        if Store.insert store (Atom.pred head) tuple cond
                        then begin
                          counters.Counters.facts_derived <-
                            counters.Counters.facts_derived + 1;
                          Profile.derived profile (Atom.pred head);
                          changed := true
                        end);
                    rule.since <- start))
              rules)
      done
    with
    | () -> Limits.Complete
    | exception Limits.Out_of_budget reason -> Limits.Exhausted reason
  in
  (* Reduction phase. *)
  let facts : unit Atom.Tbl.t = Atom.Tbl.create 256 in
  let pending = ref [] in
  ignore
    (Store.fold store
       (fun pred tuple conds () ->
         let atom = Tuple.to_atom pred tuple in
         if List.exists Cond.is_empty conds then Atom.Tbl.replace facts atom ()
         else List.iter (fun c -> pending := (atom, c) :: !pending) conds;
         ())
       ());
  let reduce_step () =
    let heads = Atom.Tbl.create 64 in
    List.iter (fun (a, _) -> Atom.Tbl.replace heads a ()) !pending;
    let changed = ref false in
    let keep =
      List.filter_map
        (fun (a, cond) ->
          if Atom.Tbl.mem facts a then begin
            (* head already true; statement redundant *)
            changed := true;
            None
          end
          else if Cond.exists (fun c -> Atom.Tbl.mem facts (atom_of c)) cond
          then begin
            (* some required absence is violated: dead statement *)
            changed := true;
            None
          end
          else begin
            let cond' =
              Cond.filter
                (fun c ->
                  let c = atom_of c in
                  Atom.Tbl.mem facts c || Atom.Tbl.mem heads c)
                cond
            in
            if Cond.cardinal cond' < Cond.cardinal cond then changed := true;
            if Cond.is_empty cond' then begin
              Atom.Tbl.replace facts a ();
              changed := true;
              None
            end
            else Some (a, cond')
          end)
        !pending
    in
    pending := keep;
    !changed
  in
  (* The reduction is polynomial in the store, but the wall clock and the
     cancellation hook still apply; the first exhaustion reason wins. *)
  let status =
    match
      while reduce_step () do
        Limits.check_clock guard
      done
    with
    | () -> status
    | exception Limits.Out_of_budget reason -> (
      match status with
      | Limits.Complete -> Limits.Exhausted reason
      | Limits.Exhausted _ -> status)
  in
  let true_db = Database.create () in
  Atom.Tbl.iter (fun a () -> ignore (Database.add_atom true_db a)) facts;
  let residual =
    List.map
      (fun (a, c) ->
        (a, List.sort Atom.compare (List.map atom_of (Cond.elements c))))
      !pending
  in
  let undefined =
    List.sort_uniq Atom.compare (List.map fst residual)
  in
  { true_db;
    undefined;
    residual;
    statements_generated = !statements;
    counters;
    status
  }

let holds outcome atom = Database.mem_atom outcome.true_db atom

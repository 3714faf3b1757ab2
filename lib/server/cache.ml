open Datalog_ast
open Datalog_storage

(* One key position: a bound constant, or a variable numbered by first
   occurrence (so the key captures repeated-variable constraints, not
   variable names). *)
type slot = Bound of Code.t | Free of int

(* Entries are shared by four structures: an exact-match hash table, a
   per-predicate bucket (for subsumption scans), a per-dependency bucket
   (for invalidation), and a doubly-linked LRU list.  The hash table,
   the LRU list and the live count are maintained eagerly; the buckets
   are cleaned lazily — a dead entry ([e_live = false]) is skipped and
   dropped the next time its bucket is walked, and [bucket_add] compacts
   any bucket that outgrows the capacity so dead references cannot
   accumulate beyond O(capacity). *)
type entry = {
  e_pred : Pred.t;
  e_key : slot array;
  e_answers : Tuple.t list;
  mutable e_live : bool;
  mutable e_newer : entry option;  (* toward the MRU end *)
  mutable e_older : entry option;  (* toward the LRU end *)
}

type stats = {
  hits : int;
  subsumed_hits : int;
  misses : int;
  insertions : int;
  invalidations : int;
  evictions : int;
}

let key_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y ->
         match (x, y) with
         | Bound c, Bound d -> Code.equal c d
         | Free i, Free j -> i = j
         | Bound _, Free _ | Free _, Bound _ -> false)
       a b

module KeyTbl = Hashtbl.Make (struct
  type t = Pred.t * slot array

  let equal (p1, k1) (p2, k2) = Pred.equal p1 p2 && key_equal k1 k2
  let hash (p, k) = Hashtbl.hash (Pred.hash p, k)
end)

type bucket = {
  mutable items : entry list;  (* newest-inserted first; may contain dead *)
  mutable blen : int;  (* List.length items, live or dead *)
}

type t = {
  capacity : int;
  table : entry KeyTbl.t;  (* exact (pred, key) -> live entry *)
  by_pred : bucket Pred.Tbl.t;  (* pred -> its entries (subsumption) *)
  dep_idx : bucket Pred.Tbl.t;  (* dep pred -> dependent entries *)
  mutable mru : entry option;  (* LRU list head (most recent) *)
  mutable lru : entry option;  (* LRU list tail (eviction victim) *)
  mutable count : int;  (* live entries *)
  mutable hits : int;
  mutable subsumed_hits : int;
  mutable misses : int;
  mutable insertions : int;
  mutable invalidations : int;
  mutable evictions : int;
}

let create ~capacity =
  { capacity;
    table = KeyTbl.create 64;
    by_pred = Pred.Tbl.create 16;
    dep_idx = Pred.Tbl.create 16;
    mru = None;
    lru = None;
    count = 0;
    hits = 0;
    subsumed_hits = 0;
    misses = 0;
    insertions = 0;
    invalidations = 0;
    evictions = 0
  }

let key_of goal =
  let next = ref 0 in
  let seen : (string * int) list ref = ref [] in
  Array.map
    (function
      | Term.Const v -> Bound (Code.of_value v)
      | Term.Var x -> (
        match List.assoc_opt x !seen with
        | Some k -> Free k
        | None ->
          let k = !next in
          incr next;
          seen := (x, k) :: !seen;
          Free k))
    (Atom.args goal)

let bound_count key =
  Array.fold_left
    (fun n -> function Bound _ -> n + 1 | Free _ -> n)
    0 key

(* [e] subsumes [g] when every tuple matching [g] also matches [e]:
   wherever [e] binds a constant [g] binds the same one, and every
   equality [e] forces between positions [g] forces too (same free
   class, or the same constant at both). *)
let subsumes ekey gkey =
  Array.length ekey = Array.length gkey
  && Array.for_all2
       (fun e g ->
         match (e, g) with
         | Bound c, Bound d -> Code.equal c d
         | Bound _, Free _ -> false
         | Free _, _ -> true)
       ekey gkey
  &&
  let classes = Hashtbl.create 7 in
  let ok = ref true in
  Array.iteri
    (fun i -> function
      | Bound _ -> ()
      | Free k -> (
        match Hashtbl.find_opt classes k with
        | None -> Hashtbl.add classes k gkey.(i)
        | Some g0 -> (
          match (g0, gkey.(i)) with
          | Bound c, Bound d -> if not (Code.equal c d) then ok := false
          | Free i0, Free i1 -> if i0 <> i1 then ok := false
          | Bound _, Free _ | Free _, Bound _ -> ok := false)))
    ekey;
  !ok

(* ------------------------------------------------------------------ *)
(* LRU list                                                            *)

let unlink t e =
  (match e.e_newer with
  | None -> t.mru <- e.e_older
  | Some n -> n.e_older <- e.e_older);
  (match e.e_older with
  | None -> t.lru <- e.e_newer
  | Some o -> o.e_newer <- e.e_newer);
  e.e_newer <- None;
  e.e_older <- None

let push_front t e =
  e.e_newer <- None;
  e.e_older <- t.mru;
  (match t.mru with None -> () | Some m -> m.e_newer <- Some e);
  t.mru <- Some e;
  if t.lru = None then t.lru <- Some e

let touch t e =
  unlink t e;
  push_front t e

(* Drop [e] from the eager structures; its bucket references die lazily. *)
let kill t e =
  e.e_live <- false;
  KeyTbl.remove t.table (e.e_pred, e.e_key);
  unlink t e;
  t.count <- t.count - 1

(* ------------------------------------------------------------------ *)
(* Buckets                                                             *)

let bucket_compact b =
  b.items <- List.filter (fun e -> e.e_live) b.items;
  b.blen <- List.length b.items

let bucket_add t tbl pred e =
  let b =
    match Pred.Tbl.find_opt tbl pred with
    | Some b -> b
    | None ->
      let b = { items = []; blen = 0 } in
      Pred.Tbl.add tbl pred b;
      b
  in
  (* live entries never exceed the capacity, so a longer bucket is mostly
     dead references: compact before they pile up *)
  if b.blen >= (2 * t.capacity) + 8 then bucket_compact b;
  b.items <- e :: b.items;
  b.blen <- b.blen + 1

(* ------------------------------------------------------------------ *)

let find t goal =
  if t.capacity <= 0 then None
  else begin
    let pred = Atom.pred goal in
    let key = key_of goal in
    match KeyTbl.find_opt t.table (pred, key) with
    | Some e ->
      touch t e;
      t.hits <- t.hits + 1;
      Some (e.e_answers, `Exact)
    | None -> (
      (* most specific subsuming entry -> least post-filtering; ties go
         to the most recently inserted (the bucket is newest-first) *)
      let best =
        match Pred.Tbl.find_opt t.by_pred pred with
        | None -> None
        | Some b ->
          bucket_compact b;
          List.fold_left
            (fun best e ->
              if subsumes e.e_key key then
                match best with
                | Some b' when bound_count b'.e_key >= bound_count e.e_key ->
                  best
                | _ -> Some e
              else best)
            None b.items
      in
      match best with
      | Some e ->
        touch t e;
        t.subsumed_hits <- t.subsumed_hits + 1;
        Some (Tuple.filter (Tuple.pattern goal) e.e_answers, `Subsumed)
      | None ->
        t.misses <- t.misses + 1;
        None)
  end

let insert t goal ~deps answers =
  if t.capacity > 0 then begin
    let pred = Atom.pred goal in
    let key = key_of goal in
    (* replacing an entry for the same pattern is silent (neither an
       eviction nor an invalidation) *)
    (match KeyTbl.find_opt t.table (pred, key) with
    | Some old -> kill t old
    | None -> ());
    if t.count >= t.capacity then begin
      match t.lru with
      | Some victim ->
        kill t victim;
        t.evictions <- t.evictions + 1
      | None -> ()
    end;
    t.insertions <- t.insertions + 1;
    let e =
      { e_pred = pred;
        e_key = key;
        e_answers = answers;
        e_live = true;
        e_newer = None;
        e_older = None
      }
    in
    KeyTbl.add t.table (pred, key) e;
    push_front t e;
    bucket_add t t.by_pred pred e;
    Pred.Set.iter (fun d -> bucket_add t t.dep_idx d e) deps;
    t.count <- t.count + 1
  end

let invalidate t changed =
  if Pred.Set.is_empty changed then 0
  else begin
    let n = ref 0 in
    Pred.Set.iter
      (fun p ->
        match Pred.Tbl.find_opt t.dep_idx p with
        | None -> ()
        | Some b ->
          List.iter
            (fun e ->
              if e.e_live then begin
                kill t e;
                incr n
              end)
            b.items;
          (* everything listed under [p] is dead now *)
          Pred.Tbl.remove t.dep_idx p)
      changed;
    t.invalidations <- t.invalidations + !n;
    !n
  end

let clear t =
  KeyTbl.reset t.table;
  Pred.Tbl.reset t.by_pred;
  Pred.Tbl.reset t.dep_idx;
  t.mru <- None;
  t.lru <- None;
  t.count <- 0

let length t = t.count

let stats t =
  { hits = t.hits; subsumed_hits = t.subsumed_hits; misses = t.misses;
    insertions = t.insertions; invalidations = t.invalidations;
    evictions = t.evictions }

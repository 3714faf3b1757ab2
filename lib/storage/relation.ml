open Datalog_ast

type bucket = {
  mutable tuples : Tuple.t list;  (* may contain dead tuples, newest first *)
  mutable blen : int;  (* number of *live* tuples in [tuples] *)
  mutable dead : int;  (* removed tuples not yet filtered out of [tuples] *)
}

type index = {
  cols : int array;  (* strictly increasing column numbers *)
  map : bucket Tuple.Tbl.t;  (* projected key -> matching tuples *)
  mutable idead : int;  (* dead entries across all buckets, for {!freeze} *)
}

(* A sorted columnar projection for one column set.  [srows] holds the
   live tuples ordered by their projection onto [scols] (raw code order),
   with equal keys ordered newest-insertion-first — the same within-key
   order as the hash buckets, so merge joins and hash joins enumerate a
   join group identically.  [skeys] is the column-major copy of the key
   columns ([skeys.(j).(i) = srows.(i).(scols.(j))]), which is what the
   galloping search touches, keeping its memory traffic to the key bytes
   instead of whole tuples.  Inserts go to [pending] (a newest-first run,
   sorted and merged into [srows] on the next read); a removal marks the
   projection [stale], rebuilding it wholesale on the next read.

   [srows] and [skeys] are capacity-managed: only the first [slen] slots
   are live, and the arrays grow geometrically, so the per-round merge of
   a fixpoint loop reuses the same buffers instead of allocating fresh
   ones — refresh allocates O(run) amortized, not O(relation). *)
type sorted = {
  scols : int array;  (* strictly increasing column numbers *)
  mutable srows : Tuple.t array;  (* live in [0, slen); capacity beyond *)
  mutable skeys : Code.t array array;  (* same capacity as [srows] *)
  mutable slen : int;
  mutable pending : Tuple.t list;
  mutable npending : int;
  mutable stale : bool;
}

(* Tuples live in a growable array in insertion order; [slots] maps each
   live tuple to its array slot.  A removal tombstones the slot ([None])
   instead of rebuilding a list, and the array is compacted once
   tombstones dominate.  Index buckets are tombstoned too: [remove] only
   decrements a per-bucket live count, and dead entries are filtered out
   the next time the bucket is read — the reader walks the whole bucket
   anyway, so the filter costs nothing asymptotically and [remove] is
   O(#indexes) outright. *)
type t = {
  name : string;
  arity : int;
  slots : int Tuple.Tbl.t;
  mutable order : Tuple.t option array;
  mutable filled : int;  (* slots in use, live or tombstoned *)
  mutable size : int;  (* live tuples *)
  indexes : (int list, index) Hashtbl.t;
  sorted_idx : (int list, sorted) Hashtbl.t;
  mutable generation : int;  (* bumped whenever indexes are invalidated *)
}

let create ?(name = "?") arity =
  { name;
    arity;
    slots = Tuple.Tbl.create 64;
    order = [||];
    filled = 0;
    size = 0;
    indexes = Hashtbl.create 4;
    sorted_idx = Hashtbl.create 4;
    generation = 0
  }

let arity r = r.arity

(* Drop dead tuples from a bucket.  Liveness is membership in [slots],
   which is why [insert] must register index entries *before* slots: a
   remove-then-reinsert of the same tuple would otherwise see its own
   fresh copy as live while the dead one still sits in the bucket. *)
let bucket_compact r idx b =
  if b.dead > 0 then begin
    b.tuples <- List.filter (fun t -> Tuple.Tbl.mem r.slots t) b.tuples;
    idx.idead <- idx.idead - b.dead;
    b.dead <- 0
  end

let bucket_tuples r idx b =
  bucket_compact r idx b;
  b.tuples

let index_add r idx tuple =
  let key = Tuple.project idx.cols tuple in
  match Tuple.Tbl.find_opt idx.map key with
  | Some b ->
    bucket_compact r idx b;
    b.tuples <- tuple :: b.tuples;
    b.blen <- b.blen + 1
  | None -> Tuple.Tbl.add idx.map key { tuples = [ tuple ]; blen = 1; dead = 0 }

let grow r =
  let cap = Array.length r.order in
  let cap' = if cap = 0 then 16 else 2 * cap in
  let order' = Array.make cap' None in
  Array.blit r.order 0 order' 0 cap;
  r.order <- order'

let insert r tuple =
  if Array.length tuple <> r.arity then
    invalid_arg
      (Printf.sprintf "Relation.insert(%s): arity %d, tuple of width %d"
         r.name r.arity (Array.length tuple));
  if Tuple.Tbl.mem r.slots tuple then false
  else begin
    (* indexes before slots: see [bucket_compact] *)
    Hashtbl.iter (fun _ idx -> index_add r idx tuple) r.indexes;
    Hashtbl.iter
      (fun _ s ->
        if not s.stale then begin
          s.pending <- tuple :: s.pending;
          s.npending <- s.npending + 1
        end)
      r.sorted_idx;
    if r.filled = Array.length r.order then grow r;
    r.order.(r.filled) <- Some tuple;
    Tuple.Tbl.add r.slots tuple r.filled;
    r.filled <- r.filled + 1;
    r.size <- r.size + 1;
    true
  end

let compact r =
  let j = ref 0 in
  for i = 0 to r.filled - 1 do
    match r.order.(i) with
    | None -> ()
    | Some tuple as slot ->
      r.order.(!j) <- slot;
      Tuple.Tbl.replace r.slots tuple !j;
      incr j
  done;
  Array.fill r.order !j (r.filled - !j) None;
  r.filled <- !j

let remove r tuple =
  match Tuple.Tbl.find_opt r.slots tuple with
  | None -> false
  | Some slot ->
    Tuple.Tbl.remove r.slots tuple;
    r.order.(slot) <- None;
    r.size <- r.size - 1;
    Hashtbl.iter
      (fun _ idx ->
        let key = Tuple.project idx.cols tuple in
        match Tuple.Tbl.find_opt idx.map key with
        | None -> ()
        | Some b ->
          b.blen <- b.blen - 1;
          if b.blen = 0 then begin
            (* no dead buckets *)
            idx.idead <- idx.idead - b.dead;
            Tuple.Tbl.remove idx.map key
          end
          else begin
            b.dead <- b.dead + 1;
            idx.idead <- idx.idead + 1
          end)
      r.indexes;
    Hashtbl.iter
      (fun _ s ->
        if not s.stale then begin
          s.stale <- true;
          s.pending <- [];
          s.npending <- 0
        end)
      r.sorted_idx;
    if r.filled > 64 && r.filled > 2 * r.size then compact r;
    true

let mem r tuple = Tuple.Tbl.mem r.slots tuple
let cardinal r = r.size
let is_empty r = r.size = 0

let iter f r =
  for i = 0 to r.filled - 1 do
    match r.order.(i) with None -> () | Some tuple -> f tuple
  done

let fold f r init =
  let acc = ref init in
  for i = 0 to r.filled - 1 do
    match r.order.(i) with None -> () | Some tuple -> acc := f tuple !acc
  done;
  !acc

let to_list r =
  let acc = ref [] in
  for i = r.filled - 1 downto 0 do
    match r.order.(i) with None -> () | Some tuple -> acc := tuple :: !acc
  done;
  !acc

(* Column sets are validated here, once per index creation, rather than on
   every probe: callers ([select], [prepare]) always pass a sorted list. *)
let check_cols cols_list =
  let rec check = function
    | i :: (j :: _ as rest) ->
      if i = j then invalid_arg "Relation: duplicate column";
      check rest
    | _ -> ()
  in
  check cols_list

let get_index r cols_list =
  match Hashtbl.find_opt r.indexes cols_list with
  | Some idx -> idx
  | None ->
    check_cols cols_list;
    let idx =
      { cols = Array.of_list cols_list; map = Tuple.Tbl.create 64; idead = 0 }
    in
    iter (fun t -> index_add r idx t) r;
    Hashtbl.add r.indexes cols_list idx;
    idx

(* Shared by [select] and [select_count]: sort the bindings by column,
   collapse duplicates (two equal bindings on one column are redundant;
   two conflicting ones match nothing, [None]), build the projected key,
   and find the bucket (if any) in the index on those columns.
   [bindings] must be non-empty. *)
let find_bucket r bindings =
  let sorted = List.sort (fun (i, _) (j, _) -> Int.compare i j) bindings in
  let rec dedup acc = function
    | [] -> Some (List.rev acc)
    | (i, c) :: (((j, d) :: _) as rest) when i = j ->
      if Code.equal c d then dedup acc rest else None
    | b :: rest -> dedup (b :: acc) rest
  in
  match dedup [] sorted with
  | None -> None
  | Some bindings ->
    let cols = List.map fst bindings in
    let key = Array.of_list (List.map snd bindings) in
    let idx = get_index r cols in
    Option.map (fun b -> (idx, b)) (Tuple.Tbl.find_opt idx.map key)

let select r bindings =
  match bindings with
  | [] -> to_list r
  | _ -> (
    match find_bucket r bindings with
    | None -> []
    | Some (idx, b) -> bucket_tuples r idx b)

let select_count r bindings =
  match bindings with
  | [] -> (to_list r, r.size)
  | _ -> (
    match find_bucket r bindings with
    | None -> ([], 0)
    | Some (idx, b) -> (bucket_tuples r idx b, b.blen))

(* Pre-resolved index handles.  [prepare] validates and sorts the column
   set once, at plan-compile time; [probe] then memoises the index of the
   last relation it was used against, so the per-call cost is a single
   physical-equality + generation check followed by one hash lookup. *)
type access = {
  acols : int list;  (* sorted, duplicate-free *)
  mutable m_rel : t option;  (* relation the memo belongs to (physical) *)
  mutable m_gen : int;  (* generation observed when memoised *)
  mutable m_idx : index option;
}

let prepare cols =
  let sorted = List.sort_uniq Int.compare cols in
  if List.length sorted <> List.length cols then
    invalid_arg "Relation.prepare: duplicate column";
  List.iter
    (fun c -> if c < 0 then invalid_arg "Relation.prepare: negative column")
    sorted;
  { acols = sorted; m_rel = None; m_gen = 0; m_idx = None }

let access_index r a =
  match a.m_idx with
  | Some idx
    when (match a.m_rel with Some r' -> r' == r | None -> false)
         && a.m_gen = r.generation ->
    idx
  | _ ->
    let idx = get_index r a.acols in
    a.m_rel <- Some r;
    a.m_gen <- r.generation;
    a.m_idx <- Some idx;
    idx

let probe r a key =
  let idx = access_index r a in
  match Tuple.Tbl.find_opt idx.map key with
  | None -> ([], 0)
  | Some b -> (bucket_tuples r idx b, b.blen)

(* ------------------------------------------------------------------ *)
(* Frozen read-only views

   A worker domain may probe a relation only through a [frozen] handle
   the coordinator prepared while it was the sole accessor: {!freeze}
   resolves (and lazily builds) the index and compacts away every dead
   bucket entry up front, so {!probe_frozen} is a pure hashtable lookup
   that mutates nothing — no bucket compaction, no handle memoisation.
   On the fixpoint path (no removals) [idead] is 0 and freezing an
   already-built index is O(1).

   The handle is only valid while the relation is not written; the
   parallel executor ({!Datalog_engine.Par}) freezes per rule
   application and re-freezes after the merge barrier. *)

type frozen = index

let freeze r a =
  let idx = access_index r a in
  if idx.idead > 0 then
    Tuple.Tbl.iter (fun _ b -> bucket_compact r idx b) idx.map;
  idx

let probe_frozen (f : frozen) key =
  match Tuple.Tbl.find_opt f.map key with
  | None -> ([], 0)
  | Some b -> (b.tuples, b.blen)

(* ------------------------------------------------------------------ *)
(* Sorted columnar projections                                         *)

(* Raw code order ([Code.compare] is [Int.compare] on the interned ids):
   merge joins only need *some* total order shared by both sides, and
   comparing ints beats decoding values.  Top-level recursion: a local
   loop closure would be allocated on every comparison of every sort. *)
let rec key_compare_from scols a b j =
  if j >= Array.length scols then 0
  else
    let c = Code.compare a.(scols.(j)) b.(scols.(j)) in
    if c <> 0 then c else key_compare_from scols a b (j + 1)

let key_compare scols a b = key_compare_from scols a b 0

(* Refill the column-major key arrays from [srows.(lo .. slen-1)];
   earlier slots are untouched rows whose keys are already in place.
   Pure writes — never allocates. *)
let columnize_from s lo =
  Array.iteri
    (fun j c ->
      let col = s.skeys.(j) in
      for i = lo to s.slen - 1 do
        col.(i) <- s.srows.(i).(c)
      done)
    s.scols

(* Grow the row and key buffers to at least [cap] slots (geometric),
   carrying the live rows over.  Returns [true] when it reallocated, in
   which case the key arrays are fresh and need a full [columnize_from 0]. *)
let sorted_ensure s cap =
  if Array.length s.srows >= cap then false
  else begin
    let cap' = max cap (max 16 (2 * Array.length s.srows)) in
    let rows' = Array.make cap' ([||] : Tuple.t) in
    Array.blit s.srows 0 rows' 0 s.slen;
    s.srows <- rows';
    s.skeys <- Array.map (fun _ -> Array.make cap' (Code.of_int 0)) s.scols;
    true
  end

(* Bring a projection up to date.  Both paths preserve the invariant
   that equal keys are ordered newest-insertion-first: a full rebuild
   lists tuples newest-first before the stable sort, and the pending run
   (newest first by construction, and younger than everything in
   [srows]) wins ties in the merge. *)
let refresh_sorted r s =
  if s.stale then begin
    (* removals are rare on the fixpoint path, so the rebuild allocates
       exact-size buffers (the whole array must be sorted, and the stdlib
       sort has no prefix variant) *)
    let rows = Array.make r.size ([||] : Tuple.t) in
    let j = ref 0 in
    for i = r.filled - 1 downto 0 do
      match r.order.(i) with
      | None -> ()
      | Some t ->
        rows.(!j) <- t;
        incr j
    done;
    Array.stable_sort (key_compare s.scols) rows;
    s.srows <- rows;
    s.slen <- r.size;
    s.skeys <- Array.map (fun _ -> Array.make r.size (Code.of_int 0)) s.scols;
    columnize_from s 0;
    s.pending <- [];
    s.npending <- 0;
    s.stale <- false
  end
  else if s.npending > 0 then begin
    let run = Array.of_list s.pending in
    Array.stable_sort (key_compare s.scols) run;
    let nb = s.slen and nr = Array.length run in
    let grew = sorted_ensure s (nb + nr) in
    (* in-place tail merge: walk base and run from their high ends, filling
       [srows] downward from [nb + nr - 1].  Once the run is exhausted the
       remaining base rows are already in place, so slots below the last
       write (and their keys) are never touched — when new tuples intern
       to high codes, the merge only churns the tail of the buffers. *)
    let i = ref (nb - 1) and j = ref (nr - 1) in
    let m = ref (nb + nr - 1) in
    while !j >= 0 do
      (* base wins ties here: placed at the higher slot, it lands *after*
         the equal-keyed (younger) run row *)
      if !i >= 0 && key_compare s.scols s.srows.(!i) run.(!j) >= 0 then begin
        s.srows.(!m) <- s.srows.(!i);
        decr i
      end
      else begin
        s.srows.(!m) <- run.(!j);
        decr j
      end;
      decr m
    done;
    s.slen <- nb + nr;
    columnize_from s (if grew then 0 else !m + 1);
    s.pending <- [];
    s.npending <- 0
  end

let get_sorted r cols_list =
  match Hashtbl.find_opt r.sorted_idx cols_list with
  | Some s -> s
  | None ->
    check_cols cols_list;
    let s =
      { scols = Array.of_list cols_list;
        srows = [||];
        skeys = [||];
        slen = 0;
        pending = [];
        npending = 0;
        stale = true
      }
    in
    Hashtbl.add r.sorted_idx cols_list s;
    s

type sorted_access = {
  sacols : int list;  (* sorted, duplicate-free *)
  mutable sm_rel : t option;
  mutable sm_gen : int;
  mutable sm_srt : sorted option;
}

type sorted_view = {
  sv_rows : Tuple.t array;
  sv_keys : Code.t array array;
  sv_len : int;
}

let prepare_sorted cols =
  let sorted = List.sort_uniq Int.compare cols in
  if List.length sorted <> List.length cols then
    invalid_arg "Relation.prepare_sorted: duplicate column";
  List.iter
    (fun c ->
      if c < 0 then invalid_arg "Relation.prepare_sorted: negative column")
    sorted;
  { sacols = sorted; sm_rel = None; sm_gen = 0; sm_srt = None }

let sorted_view r a =
  let s =
    match a.sm_srt with
    | Some s
      when (match a.sm_rel with Some r' -> r' == r | None -> false)
           && a.sm_gen = r.generation ->
      s
    | _ ->
      let s = get_sorted r a.sacols in
      a.sm_rel <- Some r;
      a.sm_gen <- r.generation;
      a.sm_srt <- Some s;
      s
  in
  refresh_sorted r s;
  { sv_rows = s.srows; sv_keys = s.skeys; sv_len = s.slen }

let copy r =
  let fresh = create ~name:r.name r.arity in
  iter (fun t -> ignore (insert fresh t)) r;
  fresh

let clear r =
  Tuple.Tbl.reset r.slots;
  r.order <- [||];
  r.filled <- 0;
  r.size <- 0;
  Hashtbl.reset r.indexes;
  Hashtbl.reset r.sorted_idx;
  r.generation <- r.generation + 1

let union_into ~src ~dst =
  fold (fun t acc -> if insert dst t then acc + 1 else acc) src 0

let index_count r = Hashtbl.length r.indexes
let sorted_index_count r = Hashtbl.length r.sorted_idx

let bucket_count r =
  Hashtbl.fold (fun _ idx acc -> acc + Tuple.Tbl.length idx.map) r.indexes 0

let pp ppf r =
  Format.fprintf ppf "@[<v>%a@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut Tuple.pp)
    (to_list r)

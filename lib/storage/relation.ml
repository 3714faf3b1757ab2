open Datalog_ast

type bucket = {
  mutable tuples : Tuple.t list;  (* may contain dead tuples, newest first *)
  mutable blen : int;  (* number of *live* tuples in [tuples] *)
  mutable dead : int;  (* removed tuples not yet filtered out of [tuples] *)
}

(* A hash index covers the insertion-order positions below its watermark
   [upto] (from the relation's first position on); inserts never touch
   it, and every read catches it up first.  An entry of a bucket is live
   iff it is a member whose slot lies below [upto]: a tuple removed and
   then inserted again lands at or above the watermark, so the dead
   entry is told apart from the live one before catching up adds the
   new entry to the same bucket. *)
type index = {
  cols : int array;  (* strictly increasing column numbers *)
  map : bucket Tuple.Tbl.t;  (* projected key -> matching tuples *)
  mutable upto : int;  (* first insertion-order position not indexed *)
}

(* A sorted columnar projection for one column set.  [srows] holds the
   live tuples ordered by their projection onto [scols] (raw code order),
   with equal keys ordered newest-insertion-first — the same within-key
   order as the hash buckets, so merge joins and hash joins enumerate a
   join group identically.  [skeys] is the column-major copy of the key
   columns ([skeys.(j).(i) = srows.(i).(scols.(j))]), which is what the
   galloping search touches, keeping its memory traffic to the key bytes
   instead of whole tuples.  Like a hash index it covers the positions
   below its watermark [supto]; a read merges the rows since then in as
   a sorted run.  A removal below the watermark marks the projection
   [stale], rebuilding it wholesale on the next read.

   [srows] and [skeys] are capacity-managed: only the first [slen] slots
   are live, and the arrays grow geometrically, so the per-round merge of
   a fixpoint loop reuses the same buffers instead of allocating fresh
   ones — refresh allocates O(run) amortized, not O(relation). *)
type sorted = {
  scols : int array;  (* strictly increasing column numbers *)
  mutable srows : Tuple.t array;  (* live in [0, slen); capacity beyond *)
  mutable skeys : Code.t array array;  (* same capacity as [srows] *)
  mutable slen : int;
  mutable supto : int;  (* first insertion-order position not merged *)
  mutable stale : bool;
}

(* The row store, shared by a relation and every slice of it.  Tuples
   live in a growable array in insertion order; a removal overwrites the
   slot with [gone], and the array is compacted once such slots dominate.
   Membership is an open-addressing table of slot numbers (linear
   probing, power-of-two capacity, load at most 1/2 counting tombstones):
   an entry is compared through [order], so it holds no tuple and an
   insert allocates nothing but the occasional growth. *)
type rows = {
  mutable order : Tuple.t array;
  mutable filled : int;  (* slots in use, live or [gone] *)
  mutable size : int;  (* live tuples *)
  mutable table : int array;  (* slot numbers, [empty] or [tomb] *)
  mutable used : int;  (* table entries that are not [empty] *)
}

(* A relation is the positions [lo, hi) of a row store: the whole store
   ([lo = 0], [hi = -1]: up to [filled], growing with it), or a read-only
   slice ([hi >= 0]) with its own indexes over its positions. *)
type t = {
  name : string;
  arity : int;
  rows : rows;
  lo : int;
  hi : int;
  count : int;  (* a slice's live tuples *)
  indexes : (int list, index) Hashtbl.t;
  sorted_idx : (int list, sorted) Hashtbl.t;
  mutable generation : int;  (* bumped whenever indexes are invalidated *)
}

(* A physically unique row no tuple can be (tuples of arity 0 are the
   shared atom [[||]]). *)
let gone : Tuple.t = Array.make 1 (Code.of_int 0)
let empty = -1
let tomb = -2
let min_table = 16

(* The least power-of-two table capacity, at least [min_table], that
   takes [n] inserts before the load test of [insert] rebuilds it. *)
let table_capacity n =
  let cap = ref min_table in
  while !cap < 2 * (n + 1) do
    cap := 2 * !cap
  done;
  !cap

let create ?(name = "?") ?(capacity = 0) arity =
  { name;
    arity;
    rows =
      { order = (if capacity > 0 then Array.make capacity [||] else [||]);
        filled = 0;
        size = 0;
        table = Array.make (table_capacity capacity) empty;
        used = 0
      };
    lo = 0;
    hi = -1;
    count = 0;
    indexes = Hashtbl.create 4;
    sorted_idx = Hashtbl.create 4;
    generation = 0
  }

let arity r = r.arity
let is_slice r = r.hi >= 0
let limit r = if r.hi >= 0 then r.hi else r.rows.filled
let mark = limit

let read_only r op =
  if is_slice r then
    invalid_arg
      (Printf.sprintf "Relation.%s(%s): a slice is read-only" op r.name)

(* ------------------------------------------------------------------ *)
(* Membership                                                          *)

(* The table position holding [t]'s slot, or [-1 - p] where [p] is the
   position an insert of [t] takes: the first tombstone on its probe
   path, or the empty entry that ends the path.  Top-level recursion, so
   a lookup allocates nothing. *)
let rec locate order table mask t i free =
  let s = table.(i) in
  if s = empty then -1 - (if free >= 0 then free else i)
  else if s = tomb then
    let free = if free >= 0 then free else i in
    locate order table mask t ((i + 1) land mask) free
  else if Tuple.equal order.(s) t then i
  else locate order table mask t ((i + 1) land mask) free

let position rows t =
  let mask = Array.length rows.table - 1 in
  locate rows.order rows.table mask t (Tuple.hash t land mask) (-1)

(* The slot of [t], or [-1]. *)
let find_slot rows t =
  let p = position rows t in
  if p >= 0 then rows.table.(p) else -1

(* Rebuild the table from [order] at a capacity that leaves room for as
   many inserts as there are live tuples before the next rebuild. *)
let rehash rows =
  let cap = ref min_table in
  while !cap < 4 * rows.size do
    cap := 2 * !cap
  done;
  let mask = !cap - 1 in
  let table = Array.make !cap empty in
  for s = 0 to rows.filled - 1 do
    let t = rows.order.(s) in
    if t != gone then begin
      let i = ref (Tuple.hash t land mask) in
      while table.(!i) <> empty do
        i := (!i + 1) land mask
      done;
      table.(!i) <- s
    end
  done;
  rows.table <- table;
  rows.used <- rows.size

(* Slots from [filled] on are never read.  They hold the static [[||]]
   rather than [gone]: [Array.make] of a large array forces a minor
   collection when its initial value is a young block. *)
let grow rows =
  let cap = Array.length rows.order in
  let order' = Array.make (if cap = 0 then 16 else 2 * cap) [||] in
  Array.blit rows.order 0 order' 0 cap;
  rows.order <- order'

let insert r tuple =
  if Array.length tuple <> r.arity then
    invalid_arg
      (Printf.sprintf "Relation.insert(%s): arity %d, tuple of width %d"
         r.name r.arity (Array.length tuple));
  read_only r "insert";
  let rows = r.rows in
  if 2 * (rows.used + 1) > Array.length rows.table then rehash rows;
  let p = position rows tuple in
  if p >= 0 then false
  else begin
    let i = -1 - p in
    if rows.table.(i) = empty then rows.used <- rows.used + 1;
    if rows.filled = Array.length rows.order then grow rows;
    rows.table.(i) <- rows.filled;
    rows.order.(rows.filled) <- tuple;
    rows.filled <- rows.filled + 1;
    rows.size <- rows.size + 1;
    true
  end

let mem r tuple =
  let s = find_slot r.rows tuple in
  s >= r.lo && (r.hi < 0 || s < r.hi)

let cardinal r = if is_slice r then r.count else r.rows.size
let is_empty r = cardinal r = 0

(* ------------------------------------------------------------------ *)
(* Hash indexes                                                        *)

(* Drop dead tuples from a bucket (see [index] for the liveness rule). *)
let bucket_compact r idx b =
  if b.dead > 0 then begin
    b.tuples <-
      List.filter
        (fun t ->
          let s = find_slot r.rows t in
          s >= 0 && s < idx.upto)
        b.tuples;
    b.dead <- 0
  end

let bucket_tuples r idx b =
  bucket_compact r idx b;
  b.tuples

let index_add r idx tuple =
  let key = Tuple.project idx.cols tuple in
  match Tuple.Tbl.find idx.map key with
  | b ->
    bucket_compact r idx b;
    b.tuples <- tuple :: b.tuples;
    b.blen <- b.blen + 1
  | exception Not_found ->
    Tuple.Tbl.add idx.map key { tuples = [ tuple ]; blen = 1; dead = 0 }

(* Index the positions from the watermark up to the relation's end,
   oldest first, so each bucket lists its tuples newest first. *)
let catch_up r idx =
  let hi = limit r in
  while idx.upto < hi do
    let t = r.rows.order.(idx.upto) in
    if t != gone then index_add r idx t;
    idx.upto <- idx.upto + 1
  done

let index_remove idx tuple =
  let key = Tuple.project idx.cols tuple in
  match Tuple.Tbl.find_opt idx.map key with
  | None -> ()
  | Some b ->
    b.blen <- b.blen - 1;
    if b.blen = 0 then begin
      (* no dead buckets *)
      Tuple.Tbl.remove idx.map key
    end
    else b.dead <- b.dead + 1

(* Squeeze out the [gone] slots.  Watermarks are positions, so every
   hash index is caught up first and then covers the whole compacted
   store; a sorted projection is rebuilt on its next read. *)
let compact r =
  Hashtbl.iter (fun _ idx -> catch_up r idx) r.indexes;
  let rows = r.rows in
  let j = ref 0 in
  for i = 0 to rows.filled - 1 do
    let t = rows.order.(i) in
    if t != gone then begin
      rows.order.(!j) <- t;
      incr j
    end
  done;
  Array.fill rows.order !j (rows.filled - !j) [||];
  rows.filled <- !j;
  rehash rows;
  Hashtbl.iter (fun _ idx -> idx.upto <- !j) r.indexes;
  Hashtbl.iter (fun _ s -> s.stale <- true) r.sorted_idx

let remove r tuple =
  read_only r "remove";
  let rows = r.rows in
  let p = position rows tuple in
  if p < 0 then false
  else begin
    let slot = rows.table.(p) in
    let stored = rows.order.(slot) in
    rows.table.(p) <- tomb;
    rows.order.(slot) <- gone;
    rows.size <- rows.size - 1;
    Hashtbl.iter
      (fun _ idx -> if slot < idx.upto then index_remove idx stored)
      r.indexes;
    Hashtbl.iter
      (fun _ s -> if slot < s.supto then s.stale <- true)
      r.sorted_idx;
    if rows.filled > 64 && rows.filled > 2 * rows.size then compact r;
    true
  end

(* ------------------------------------------------------------------ *)
(* Enumeration                                                         *)

let iter f r =
  let rows = r.rows in
  (* the bound is read once, so the tuples [f] inserts are not visited;
     [rows.order] is re-read, since [f] may grow the store *)
  for i = r.lo to limit r - 1 do
    let t = rows.order.(i) in
    if t != gone then f t
  done

let fold f r init =
  let acc = ref init in
  for i = r.lo to limit r - 1 do
    let t = r.rows.order.(i) in
    if t != gone then acc := f t !acc
  done;
  !acc

let collect r from =
  let acc = ref [] in
  for i = limit r - 1 downto max from r.lo do
    let t = r.rows.order.(i) in
    if t != gone then acc := t :: !acc
  done;
  !acc

let to_list r = collect r r.lo
let added_since r mark = (collect r mark, limit r)

let live_between rows lo hi =
  let n = ref 0 in
  for i = lo to hi - 1 do
    if rows.order.(i) != gone then incr n
  done;
  !n

let since r mark =
  let lo = max mark r.lo in
  let hi = limit r in
  { r with
    lo;
    hi;
    count = live_between r.rows lo hi;
    indexes = Hashtbl.create 4;
    sorted_idx = Hashtbl.create 4;
    generation = 0
  }

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
  let idx =
    match Hashtbl.find_opt r.indexes cols_list with
    | Some idx -> idx
    | None ->
      check_cols cols_list;
      let idx =
        { cols = Array.of_list cols_list;
          map = Tuple.Tbl.create 64;
          upto = r.lo
        }
      in
      Hashtbl.add r.indexes cols_list idx;
      idx
  in
  catch_up r idx;
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

let matching r (p : Tuple.pattern) =
  let a =
    if p.consts = [] && p.repeats = [] then begin
      let a = Array.make (cardinal r) [||] and n = ref 0 in
      iter
        (fun t ->
          a.(!n) <- t;
          incr n)
        r;
      a
    end
    else Array.of_list (Tuple.filter p (select r p.consts))
  in
  Tuple.sort a;
  Array.to_list a

let select_count r bindings =
  match bindings with
  | [] -> (to_list r, cardinal r)
  | _ -> (
    match find_bucket r bindings with
    | None -> ([], 0)
    | Some (idx, b) -> (bucket_tuples r idx b, b.blen))

(* Pre-resolved index handles.  [prepare] validates and sorts the column
   set once, at plan-compile time; [probe] then memoises the index of the
   last relation it was used against, so the per-call cost is a single
   physical-equality + generation check, the watermark test, and one hash
   lookup. *)
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
    catch_up r idx;
    idx
  | _ ->
    let idx = get_index r a.acols in
    a.m_rel <- Some r;
    a.m_gen <- r.generation;
    a.m_idx <- Some idx;
    idx

let probe r a key =
  let idx = access_index r a in
  match Tuple.Tbl.find idx.map key with
  | b -> (bucket_tuples r idx b, b.blen)
  | exception Not_found -> ([], 0)

(* ------------------------------------------------------------------ *)
(* Sorted columnar projections                                         *)

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

(* The live rows of positions [lo, hi), newest first. *)
let newest_first r lo hi =
  let run = Array.make (live_between r.rows lo hi) ([||] : Tuple.t) in
  let j = ref 0 in
  for i = hi - 1 downto lo do
    let t = r.rows.order.(i) in
    if t != gone then begin
      run.(!j) <- t;
      incr j
    end
  done;
  run

(* Bring a projection up to its relation's end.  Both paths preserve the
   invariant that equal keys are ordered newest-insertion-first: a full
   rebuild lists tuples newest-first before the stable sort, and the run
   since the watermark (newest first, and younger than everything in
   [srows]) wins ties in the merge. *)
let refresh_sorted r s =
  let hi = limit r in
  if s.stale then begin
    (* a first read (each round's delta slice takes this path) or a
       rebuild after a removal: exact-size buffers, as the sort takes a
       whole array *)
    let rows = newest_first r r.lo hi in
    Tuple.sort_by_codes s.scols rows;
    let n = Array.length rows in
    s.srows <- rows;
    s.slen <- n;
    s.skeys <- Array.map (fun _ -> Array.make n (Code.of_int 0)) s.scols;
    columnize_from s 0;
    s.supto <- hi;
    s.stale <- false
  end
  else if s.supto < hi then begin
    let run = newest_first r s.supto hi in
    s.supto <- hi;
    Tuple.sort_by_codes s.scols run;
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
      if !i >= 0 && Tuple.compare_codes s.scols s.srows.(!i) run.(!j) >= 0
      then begin
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
    columnize_from s (if grew then 0 else !m + 1)
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
        supto = r.lo;
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
  read_only r "clear";
  let rows = r.rows in
  rows.order <- [||];
  rows.filled <- 0;
  rows.size <- 0;
  rows.table <- Array.make min_table empty;
  rows.used <- 0;
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

open Datalog_ast

type t = Code.t array

(* Top-level recursions: a local [let rec] closing over the arrays would
   be allocated on every call, and these run once per probe and insert. *)
let rec equal_from (a : t) (b : t) n i =
  i >= n || (a.(i) = b.(i) && equal_from a b n (i + 1))

let equal (a : t) (b : t) =
  let n = Array.length a in
  n = Array.length b && equal_from a b n 0

let rec compare_from (a : t) (b : t) n i =
  if i >= n then 0
  else
    let c = Code.compare_values a.(i) b.(i) in
    if c <> 0 then c else compare_from a b n (i + 1)

let compare (a : t) (b : t) =
  let c = Int.compare (Array.length a) (Array.length b) in
  if c <> 0 then c else compare_from a b (Array.length a) 0

(* [sort] and [sort_by_codes] share one stable LSD radix sort over int
   keys: [Code.order_key] of every column for [sort], the raw codes of
   chosen columns for the sorted projections of relations.  Columns are
   sorted last to first, each with as many digit passes as its key range
   (the span from its least to its greatest key) needs.  A digit has at
   most [max_digit_bits] bits, and at most about [log2 n] for [n] keys,
   so that a run of a few hundred rows counts into a few dozen buckets
   rather than 2 048; the bits of a range are spread evenly over its
   passes.

   [sort] leaves dictionary ints (which have no order key), tuples of
   more than one arity, and arrays below [radix_cutoff] to the
   comparison sort: there the count array costs more than the
   comparisons it saves.  [sort_by_codes] takes every code, and sorts
   arrays below [insertion_cutoff] by insertion. *)
let radix_cutoff = 256
let insertion_cutoff = 16
let max_digit_bits = 11

(* The number of bits of [r], read unsigned. *)
let rec bit_length r = if r = 0 then 0 else 1 + bit_length (r lsr 1)

(* The digit width for [n] keys spanning [range]. *)
let digit_width n range =
  let bits = bit_length range in
  let cap = max 4 (min max_digit_bits (bit_length n)) in
  let passes = (bits + cap - 1) / cap in
  (bits + passes - 1) / passes

let key raw c = if raw then c else Code.order_key c

(* One stable counting pass: [src] scattered into [dst] by the digit at
   [shift] of the key of column [j] minus [base], the column's least
   key.  That difference may exceed [max_int] (symbols and ints far
   apart); [lsr] reads it unsigned. *)
let radix_pass raw count mask (src : t array) (dst : t array) j base shift =
  Array.fill count 0 (mask + 1) 0;
  for i = 0 to Array.length src - 1 do
    let d = ((key raw src.(i).(j) - base) lsr shift) land mask in
    count.(d) <- count.(d) + 1
  done;
  let sum = ref 0 in
  for d = 0 to mask do
    let c = count.(d) in
    count.(d) <- !sum;
    sum := !sum + c
  done;
  for i = 0 to Array.length src - 1 do
    let t = src.(i) in
    let d = ((key raw t.(j) - base) lsr shift) land mask in
    let q = count.(d) in
    dst.(q) <- t;
    count.(d) <- q + 1
  done

(* Sort [a] by the keys of [cols], [lo] and [hi] holding each column's
   least and greatest key. *)
let radix_sort raw cols (a : t array) lo hi =
  let n = Array.length a in
  let src = ref a and dst = ref (Array.make n [||]) in
  for j = Array.length cols - 1 downto 0 do
    let range = hi.(j) - lo.(j) in
    if range <> 0 then begin
      let width = digit_width n range in
      let count = Array.make (1 lsl width) 0 in
      let shift = ref 0 in
      while !shift < Sys.int_size && range lsr !shift <> 0 do
        radix_pass raw count ((1 lsl width) - 1) !src !dst cols.(j) lo.(j)
          !shift;
        let s = !src in
        src := !dst;
        dst := s;
        shift := !shift + width
      done
    end
  done;
  if !src != a then Array.blit !src 0 a 0 n

(* Per-column key minima and maxima, or [None] when [sort]'s radix sort
   cannot take [a]. *)
let key_bounds (a : t array) =
  let arity = Array.length a.(0) in
  let lo = Array.make arity max_int and hi = Array.make arity min_int in
  match
    Array.iter
      (fun (t : t) ->
        if Array.length t <> arity then raise_notrace Exit;
        for j = 0 to arity - 1 do
          let c = t.(j) in
          if Code.is_dictionary c then raise_notrace Exit;
          let k = Code.order_key c in
          if k < lo.(j) then lo.(j) <- k;
          if k > hi.(j) then hi.(j) <- k
        done)
      a
  with
  | () -> Some (lo, hi)
  | exception Exit -> None

let sort (a : t array) =
  if Array.length a < radix_cutoff then Array.stable_sort compare a
  else
    match key_bounds a with
    | Some (lo, hi) ->
      radix_sort false (Array.init (Array.length lo) Fun.id) a lo hi
    | None -> Array.stable_sort compare a

let rec compare_codes_from cols (a : t) (b : t) j =
  if j >= Array.length cols then 0
  else
    let c = Int.compare a.(cols.(j)) b.(cols.(j)) in
    if c <> 0 then c else compare_codes_from cols a b (j + 1)

let compare_codes cols a b = compare_codes_from cols a b 0

let sort_by_codes cols (a : t array) =
  let n = Array.length a in
  if n < insertion_cutoff then
    for i = 1 to n - 1 do
      let t = a.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && compare_codes cols a.(!j) t > 0 do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- t
    done
  else begin
    let lo = Array.make (Array.length cols) max_int
    and hi = Array.make (Array.length cols) min_int in
    for i = 0 to n - 1 do
      for j = 0 to Array.length cols - 1 do
        let k = a.(i).(cols.(j)) in
        if k < lo.(j) then lo.(j) <- k;
        if k > hi.(j) then hi.(j) <- k
      done
    done;
    radix_sort true cols a lo hi
  end

(* Combine with a large odd multiplier, so that small codes do not collide
   outright, then finalise: the multiply carries every code into the high
   bits and the xor-shift folds them back into the low bits, the only ones
   a power-of-two [Hashtbl] indexes by. *)
let hash (t : t) =
  let h = ref (Array.length t) in
  for i = 0 to Array.length t - 1 do
    h := (!h * 0x2545F4914F6CDD1D) + t.(i)
  done;
  let h = !h * 0x2127599BF4325C37 in
  (h lxor (h lsr 32)) land max_int

let encode values = Array.map Code.of_value values
let decode (t : t) = Array.map Code.to_value t

(* One pass from the atom's terms to codes, with no [Value.t array] in
   between. *)
let of_atom a =
  Array.map
    (function
      | Term.Const v -> Code.of_value v
      | Term.Var v ->
        invalid_arg (Printf.sprintf "Tuple.of_atom: free variable %s" v))
    (Atom.args a)

let to_atom pred t = Atom.of_tuple pred (decode t)

type pattern = {
  arity : int;
  consts : (int * Code.t) list;
  repeats : (int * int) list;
}

let pattern atom =
  let args = Atom.args atom in
  let consts = ref [] and repeats = ref [] and first = ref [] in
  Array.iteri
    (fun i arg ->
      match arg with
      | Term.Const v -> consts := (i, Code.of_value v) :: !consts
      | Term.Var x -> (
        match List.assoc_opt x !first with
        | Some j -> repeats := (j, i) :: !repeats
        | None -> first := (x, i) :: !first))
    args;
  { arity = Array.length args;
    consts = List.rev !consts;
    repeats = List.rev !repeats
  }

let rec consts_hold (t : t) = function
  | [] -> true
  | (i, c) :: rest -> t.(i) = c && consts_hold t rest

let rec repeats_hold (t : t) = function
  | [] -> true
  | (i, j) :: rest -> t.(i) = t.(j) && repeats_hold t rest

let accepts p (t : t) = consts_hold t p.consts && repeats_hold t p.repeats

let filter p tuples =
  if p.consts = [] && p.repeats = [] then tuples
  else List.filter (accepts p) tuples

let matches atom =
  let p = pattern atom in
  fun (t : t) -> Array.length t = p.arity && accepts p t

let project cols (t : t) =
  let n = Array.length cols in
  if n = 0 then [||]
  else begin
    let key = Array.make n t.(cols.(0)) in
    for i = 1 to n - 1 do
      key.(i) <- t.(cols.(i))
    done;
    key
  end

let add_atom buf pred (t : t) =
  Buffer.add_string buf (Pred.name pred);
  if Array.length t > 0 then begin
    Buffer.add_char buf '(';
    for i = 0 to Array.length t - 1 do
      if i > 0 then Buffer.add_string buf ", ";
      Code.render buf t.(i)
    done;
    Buffer.add_char buf ')'
  end

let pp ppf (t : t) =
  Format.fprintf ppf "(%a)"
    (Format.pp_print_array
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       Code.pp)
    t

module Tbl = Hashtbl.Make (struct
  type nonrec t = t
  let equal = equal
  let hash = hash
end)

module Set = Set.Make (struct
  type nonrec t = t
  let compare = compare
end)

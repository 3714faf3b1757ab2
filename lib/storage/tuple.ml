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

(* [sort] is an LSD radix sort over [Code.order_key].  Dictionary ints
   have no order key, and an array holding one, or tuples of more than
   one arity, goes to the comparison sort, as does any array below
   [radix_cutoff]: there the per-pass [buckets]-word count array costs
   more than the comparisons it saves.  Columns are sorted last to
   first, each with the 11-bit digit passes its key range needs. *)
let radix_cutoff = 256
let digit_bits = 11
let buckets = 1 lsl digit_bits
let digit_mask = buckets - 1

(* Per-column key minima and maxima, or [None] when the radix sort
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

(* One stable counting pass: [src] scattered into [dst] by the digit at
   [shift] of column [j]'s key minus [base], the column minimum.  That
   difference may exceed [max_int] (symbols and ints far apart); [lsr]
   reads it unsigned. *)
let radix_pass count (src : t array) (dst : t array) j base shift =
  Array.fill count 0 buckets 0;
  for i = 0 to Array.length src - 1 do
    let k = Code.order_key src.(i).(j) in
    let d = ((k - base) lsr shift) land digit_mask in
    count.(d) <- count.(d) + 1
  done;
  let sum = ref 0 in
  for d = 0 to buckets - 1 do
    let c = count.(d) in
    count.(d) <- !sum;
    sum := !sum + c
  done;
  for i = 0 to Array.length src - 1 do
    let t = src.(i) in
    let d = ((Code.order_key t.(j) - base) lsr shift) land digit_mask in
    let q = count.(d) in
    dst.(q) <- t;
    count.(d) <- q + 1
  done

let radix_sort (a : t array) lo hi =
  let src = ref a and dst = ref (Array.make (Array.length a) [||]) in
  let count = Array.make buckets 0 in
  for j = Array.length lo - 1 downto 0 do
    let range = hi.(j) - lo.(j) in
    let shift = ref 0 in
    while !shift < Sys.int_size && range lsr !shift <> 0 do
      radix_pass count !src !dst j lo.(j) !shift;
      let s = !src in
      src := !dst;
      dst := s;
      shift := !shift + digit_bits
    done
  done;
  if !src != a then Array.blit !src 0 a 0 (Array.length a)

let sort (a : t array) =
  if Array.length a < radix_cutoff then Array.stable_sort compare a
  else
    match key_bounds a with
    | Some (lo, hi) -> radix_sort a lo hi
    | None -> Array.stable_sort compare a

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
let of_atom a = encode (Atom.to_tuple a)
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

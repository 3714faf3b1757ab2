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
      Buffer.add_string buf (Code.to_string t.(i))
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

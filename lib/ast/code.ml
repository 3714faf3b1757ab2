(* One-word codes for ground values.

   Encoding (63-bit OCaml ints):
     - symbol [s]            ->  [2 * Symbol.id s]        (even, >= 0)
     - int [i] that fits     ->  [2*i + 1]                (odd, either sign)
     - int [i] out of range  ->  [-2 * (slot + 1)]        (even, < 0)
   where "fits" means [2*i + 1] cannot overflow, i.e.
   [min_int asr 1 <= i <= max_int asr 1].  Out-of-range ints go through a
   process-wide side dictionary (slot -> int), mirroring the global symbol
   intern table: tuples flow freely between databases (deltas, rewrite
   scratch databases, engine copies), so codes must mean the same thing in
   every database of the process.

   The encoding is injective, so equality of codes is [Int.equal] and
   hashing is the identity — the whole point of the representation. *)

type t = int

let small_min = min_int asr 1
let small_max = max_int asr 1
let fits_small i = i >= small_min && i <= small_max

(* Side dictionary for ints outside [small_min, small_max].  Like the
   {!Symbol} intern table it is process-wide mutable state, and a library
   caller may use it from more than one OCaml 5 domain at a time, so
   every access holds [lock].  Only out-of-range ints pay it — the
   small-int and symbol paths are pure arithmetic on immutable ints and
   stay lock-free. *)
let lock = Mutex.create ()

let locked f =
  Mutex.lock lock;
  match f () with
  | v ->
    Mutex.unlock lock;
    v
  | exception e ->
    Mutex.unlock lock;
    raise e

let dict : (int, int) Hashtbl.t = Hashtbl.create 16
let dict_rev : int array ref = ref (Array.make 16 0)
let dict_count = ref 0

let dict_intern i =
  locked (fun () ->
      match Hashtbl.find_opt dict i with
      | Some slot -> slot
      | None ->
        let slot = !dict_count in
        let n = Array.length !dict_rev in
        if slot >= n then begin
          let bigger = Array.make (n * 2) 0 in
          Array.blit !dict_rev 0 bigger 0 n;
          dict_rev := bigger
        end;
        !dict_rev.(slot) <- i;
        incr dict_count;
        Hashtbl.add dict i slot;
        slot)

let dictionary_size () = locked (fun () -> !dict_count)

let of_symbol s = Symbol.id s * 2

let of_int i =
  if fits_small i then (i lsl 1) lor 1 else -2 * (dict_intern i + 1)

let of_value = function
  | Value.Sym s -> of_symbol s
  | Value.Int i -> of_int i

let is_int c = c land 1 = 1 || c < 0
let is_symbol c = c land 1 = 0 && c >= 0

let to_int c =
  if c land 1 = 1 then c asr 1
  else if c >= 0 then invalid_arg "Code.to_int: code is a symbol"
  else
    locked (fun () ->
        let slot = (-c asr 1) - 1 in
        if slot < 0 || slot >= !dict_count then
          invalid_arg
            (Printf.sprintf "Code.to_int: unknown dictionary code %d" c);
        !dict_rev.(slot))

let to_value c =
  if c land 1 = 1 then Value.Int (c asr 1)
  else if c >= 0 then Value.Sym (Symbol.of_id (c lsr 1))
  else Value.Int (to_int c)

let equal (a : t) (b : t) = a = b
let compare = Int.compare
let hash (c : t) = c

(* Order of the decoded values, matching {!Value.compare}: symbols by id,
   ints numerically, every symbol below every int. *)
let compare_values a b =
  match is_int a, is_int b with
  | false, false -> Int.compare a b (* symbol codes are monotone in id *)
  | true, true ->
    if a land 1 = 1 && b land 1 = 1 then Int.compare a b
      (* odd codes are monotone in the int *)
    else Int.compare (to_int a) (to_int b)
  | false, true -> -1
  | true, false -> 1

let is_dictionary c = c < 0 && c land 1 = 0

(* Small ints keep their value; symbols go below [small_min] in id
   order. *)
let order_key c = if c land 1 = 1 then c asr 1 else min_int + (c lsr 1)

let eval_cmp op a b =
  match (op : Literal.cmp) with
  | Literal.Eq -> a = b
  | Literal.Neq -> a <> b
  | Literal.Lt -> compare_values a b < 0
  | Literal.Leq -> compare_values a b <= 0
  | Literal.Gt -> compare_values a b > 0
  | Literal.Geq -> compare_values a b >= 0

let pp ppf c = Value.pp ppf (to_value c)
let to_string c = Value.to_string (to_value c)

(* Digits of [-n] for [n <= 0], most significant first: working on the
   non-positive side covers [min_int], whose negation overflows. *)
let rec add_neg_digits buf n =
  if n <= -10 then add_neg_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 - (n mod 10)))

let add_digits buf n =
  if n < 0 then begin
    Buffer.add_char buf '-';
    add_neg_digits buf n
  end
  else add_neg_digits buf (-n)

let render buf c =
  if c land 1 = 1 then add_digits buf (c asr 1)
  else if c >= 0 then
    Buffer.add_string buf (Symbol.name (Symbol.of_id (c lsr 1)))
  else Buffer.add_string buf (string_of_int (to_int c))

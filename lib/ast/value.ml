type t =
  | Sym of Symbol.t
  | Int of int

let sym name = Sym (Symbol.intern name)
let int i = Int i

let equal a b =
  match a, b with
  | Sym x, Sym y -> Symbol.equal x y
  | Int x, Int y -> x = y
  | Sym _, Int _ | Int _, Sym _ -> false

let compare a b =
  match a, b with
  | Sym x, Sym y -> Symbol.compare x y
  | Int x, Int y -> Int.compare x y
  | Sym _, Int _ -> -1
  | Int _, Sym _ -> 1

let hash = function
  | Sym s -> Symbol.hash s * 2
  | Int i -> (i * 2) + 1

let pp ppf = function
  | Sym s -> Symbol.pp ppf s
  | Int i -> Format.pp_print_int ppf i

let to_string = function
  | Sym s -> Symbol.name s
  | Int i -> string_of_int i

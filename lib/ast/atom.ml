type t = { pred : Pred.t; args : Term.t array }

let make pred args =
  if Array.length args <> Pred.arity pred then
    invalid_arg
      (Format.asprintf "Atom.make: %a applied to %d arguments" Pred.pp pred
         (Array.length args));
  { pred; args }

let app name args =
  let args = Array.of_list args in
  make (Pred.make name (Array.length args)) args

let pred a = a.pred
let args a = a.args
let arity a = Array.length a.args

let vars a =
  Array.fold_right (fun t acc -> Term.vars t @ acc) a.args []

let var_set a =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun v ->
      if Hashtbl.mem seen v then false
      else begin
        Hashtbl.add seen v ();
        true
      end)
    (vars a)

(* A top-level recursion: [Array.for_all] allocates a closure per call,
   and every parsed fact and every fact [Program.make] sees is tested. *)
let rec ground_from args i =
  i = Array.length args || (Term.is_ground args.(i) && ground_from args (i + 1))

let is_ground a = ground_from a.args 0

let to_tuple a =
  Array.map
    (function
      | Term.Const v -> v
      | Term.Var v ->
        invalid_arg (Printf.sprintf "Atom.to_tuple: free variable %s" v))
    a.args

let of_tuple pred tuple = make pred (Array.map Term.const tuple)

let equal a b =
  Pred.equal a.pred b.pred && Array.for_all2 Term.equal a.args b.args

let compare a b =
  let c = Pred.compare a.pred b.pred in
  if c <> 0 then c
  else
    let n = Array.length a.args in
    let rec go i =
      if i >= n then 0
      else
        let c = Term.compare a.args.(i) b.args.(i) in
        if c <> 0 then c else go (i + 1)
    in
    go 0

let hash a =
  Array.fold_left
    (fun acc t ->
      let h =
        match t with
        | Term.Var v -> Hashtbl.hash v
        | Term.Const c -> Value.hash c
      in
      (acc * 31) + h)
    (Pred.hash a.pred) a.args

let pp ppf a =
  if arity a = 0 then Pred.pp_name ppf a.pred
  else
    Format.fprintf ppf "%a(%a)" Pred.pp_name a.pred
      (Format.pp_print_array
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
         Term.pp)
      a.args

module Ord = struct
  type nonrec t = t
  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)

module Tbl = Hashtbl.Make (struct
  type nonrec t = t
  let equal = equal
  let hash = hash
end)

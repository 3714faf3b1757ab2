type t = int

(* The reflected IEEE table, then three more for slicing by four:
   [table.(k * 256 + n)] is the CRC of byte [n] followed by [k] zero
   bytes.  32-bit values in native ints, so the loops run unboxed. *)
let table =
  let t = Array.make 1024 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for i = 256 to 1023 do
    let prev = t.(i - 256) in
    t.(i) <- (prev lsr 8) lxor t.(prev land 0xFF)
  done;
  t

let update crc s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Crc32.update";
  let t = table in
  let byte i = Char.code (String.unsafe_get s i) in
  let word j =
    byte j lor (byte (j + 1) lsl 8) lor (byte (j + 2) lsl 16)
    lor (byte (j + 3) lsl 24)
  in
  let c = ref (crc lxor 0xFFFFFFFF) in
  let i = ref pos in
  let stop = pos + len in
  (* four bytes a step: four independent lookups instead of a chain *)
  while !i + 4 <= stop do
    let j = !i in
    let x = !c lxor word j in
    c :=
      Array.unsafe_get t (768 + (x land 0xFF))
      lxor Array.unsafe_get t (512 + ((x lsr 8) land 0xFF))
      lxor Array.unsafe_get t (256 + ((x lsr 16) land 0xFF))
      lxor Array.unsafe_get t (x lsr 24);
    i := j + 4
  done;
  while !i < stop do
    c := Array.unsafe_get t ((!c lxor byte !i) land 0xFF) lxor (!c lsr 8);
    incr i
  done;
  !c lxor 0xFFFFFFFF

let empty = 0

let string s = update empty s ~pos:0 ~len:(String.length s)

let to_hex c = Printf.sprintf "%08x" c

(* [Int32]'s reader, so the frame headers it accepts are exactly the
   ones the format always accepted *)
let of_hex s =
  if String.length s <> 8 then None
  else
    Option.map
      (fun c -> Int32.to_int c land 0xFFFFFFFF)
      (Int32.of_string_opt ("0x" ^ s))

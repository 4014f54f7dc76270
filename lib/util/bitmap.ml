type t = { bits : Bytes.t; length : int }

let create length =
  if length < 0 then invalid_arg "Bitmap.create";
  { bits = Bytes.make ((length + 7) / 8) '\000'; length }

let length t = t.length

let check t i =
  if i < 0 || i >= t.length then
    invalid_arg (Printf.sprintf "Bitmap: index %d out of bounds [0,%d)" i t.length)

let get t i =
  check t i;
  Char.code (Bytes.get t.bits (i lsr 3)) land (1 lsl (i land 7)) <> 0

let set t i =
  check t i;
  let byte = i lsr 3 in
  Bytes.set t.bits byte
    (Char.chr (Char.code (Bytes.get t.bits byte) lor (1 lsl (i land 7))))

let clear t i =
  check t i;
  let byte = i lsr 3 in
  Bytes.set t.bits byte
    (Char.chr (Char.code (Bytes.get t.bits byte) land lnot (1 lsl (i land 7)) land 0xff))

let assign t i v = if v then set t i else clear t i

(* The last byte may contain bits beyond [length]; keep them zero so that
   [count], [equal] and serialization never observe garbage. *)
let mask_tail t =
  let rem = t.length land 7 in
  if rem <> 0 && Bytes.length t.bits > 0 then begin
    let last = Bytes.length t.bits - 1 in
    let mask = (1 lsl rem) - 1 in
    Bytes.set t.bits last (Char.chr (Char.code (Bytes.get t.bits last) land mask))
  end

let fill t v =
  Bytes.fill t.bits 0 (Bytes.length t.bits) (if v then '\255' else '\000');
  if v then mask_tail t

let copy t = { bits = Bytes.copy t.bits; length = t.length }
let equal a b = a.length = b.length && Bytes.equal a.bits b.bits

let popcount_byte =
  let table = Array.make 256 0 in
  for i = 1 to 255 do
    table.(i) <- table.(i lsr 1) + (i land 1)
  done;
  fun c -> table.(Char.code c)

let count t =
  let n = ref 0 in
  Bytes.iter (fun c -> n := !n + popcount_byte c) t.bits;
  !n

let map2 op a b =
  if a.length <> b.length then invalid_arg "Bitmap: length mismatch";
  let r = create a.length in
  for i = 0 to Bytes.length a.bits - 1 do
    Bytes.set r.bits i
      (Char.chr (op (Char.code (Bytes.get a.bits i)) (Char.code (Bytes.get b.bits i))))
  done;
  r

let union a b = map2 (fun x y -> x lor y) a b
let inter a b = map2 (fun x y -> x land y) a b
let diff a b = map2 (fun x y -> x land lnot y land 0xff) a b

let union_into ~dst src =
  if dst.length <> src.length then invalid_arg "Bitmap: length mismatch";
  for i = 0 to Bytes.length dst.bits - 1 do
    Bytes.set dst.bits i
      (Char.chr (Char.code (Bytes.get dst.bits i) lor Char.code (Bytes.get src.bits i)))
  done

let is_empty t =
  let exception Found in
  try
    Bytes.iter (fun c -> if c <> '\000' then raise Found) t.bits;
    true
  with Found -> false

let subset a b = is_empty (diff a b)

let iter_set f t =
  for byte = 0 to Bytes.length t.bits - 1 do
    let c = Char.code (Bytes.get t.bits byte) in
    if c <> 0 then
      for bit = 0 to 7 do
        if c land (1 lsl bit) <> 0 then f ((byte lsl 3) lor bit)
      done
  done

let fold_set f init t =
  let acc = ref init in
  iter_set (fun i -> acc := f !acc i) t;
  !acc

let to_list t = List.rev (fold_set (fun acc i -> i :: acc) [] t)

let first_set_from t start =
  let rec loop i =
    if i >= t.length then None
    else if get t i then Some i
    else loop (i + 1)
  in
  if start < 0 then loop 0 else loop start

let first_clear_from t start =
  let rec loop i =
    if i >= t.length then None
    else if not (get t i) then Some i
    else loop (i + 1)
  in
  if start < 0 then loop 0 else loop start

let write w t =
  Serde.write_u32 w t.length;
  Serde.write_bytes w t.bits

let read r =
  let length = Serde.read_u32 r in
  let bits = Bytes.of_string (Serde.read_fixed r ((length + 7) / 8)) in
  let t = { bits; length } in
  mask_tail t;
  t

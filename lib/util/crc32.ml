type t = int

(* Slicing-by-16: sixteen 256-entry tables laid out flat, [tab.(k * 256 + n)]
   holding table k. Table 0 is the classic bytewise table; table k feeds a
   byte through k extra zero bytes, so sixteen lookups advance the state by
   sixteen input bytes with a single combine — the serial dependency per
   byte that limits the bytewise loop is gone. Same polynomial, same
   state, bit-identical results. *)
let tab =
  let t = Array.make (16 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      if !c land 1 <> 0 then c := 0xedb88320 lxor (!c lsr 1) else c := !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 15 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- t.(prev land 0xff) lxor (prev lsr 8)
    done
  done;
  t

let init = 0xffffffff

(* Table [k]'s entry for byte [shift / 8] of the 32-bit word [w]. *)
let[@inline] lookup k w shift =
  Array.unsafe_get tab ((k * 256) + ((w lsr shift) land 0xff))

let update_substring crc s pos len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Crc32.update_substring";
  let c = ref crc in
  let i = ref pos in
  let fin = pos + len in
  (* Two little-endian 64-bit loads per step, in range by the loop
     condition. [Int64.to_int] keeps the low 63 bits, so the low half is
     masked and the high half comes from a logical shift. *)
  while fin - !i >= 16 do
    let k = !i in
    let x = String.get_int64_le s k and y = String.get_int64_le s (k + 8) in
    let a = !c lxor (Int64.to_int x land 0xffffffff) in
    let b = Int64.to_int (Int64.shift_right_logical x 32) in
    let d = Int64.to_int y land 0xffffffff in
    let e = Int64.to_int (Int64.shift_right_logical y 32) in
    c :=
      lookup 15 a 0 lxor lookup 14 a 8 lxor lookup 13 a 16 lxor lookup 12 a 24
      lxor lookup 11 b 0 lxor lookup 10 b 8 lxor lookup 9 b 16 lxor lookup 8 b 24
      lxor lookup 7 d 0 lxor lookup 6 d 8 lxor lookup 5 d 16 lxor lookup 4 d 24
      lxor lookup 3 e 0 lxor lookup 2 e 8 lxor lookup 1 e 16 lxor lookup 0 e 24;
    i := k + 16
  done;
  while !i < fin do
    c := tab.((!c lxor Char.code s.[!i]) land 0xff) lxor (!c lsr 8);
    incr i
  done;
  !c

let update_byte crc b = tab.((crc lxor b) land 0xff) lxor (crc lsr 8)
let update_string crc s = update_substring crc s 0 (String.length s)
let finish crc = crc lxor 0xffffffff
let string s = finish (update_string init s)
let substring s pos len = finish (update_substring init s pos len)

type t = int

(* Slicing-by-8: eight 256-entry tables laid out flat, [tab.(k * 256 + n)]
   holding table k. Table 0 is the classic bytewise table; table k feeds a
   byte through k extra zero bytes, so eight lookups advance the state by
   eight input bytes with a single combine — the serial dependency per
   byte that limits the bytewise loop is gone. Same polynomial, same
   state, bit-identical results. *)
let tab =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      if !c land 1 <> 0 then c := 0xedb88320 lxor (!c lsr 1) else c := !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- t.(prev land 0xff) lxor (prev lsr 8)
    done
  done;
  t

let init = 0xffffffff

let update_substring crc s pos len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Crc32.update_substring";
  let c = ref crc in
  let i = ref pos in
  let fin = pos + len in
  (* in-range by the loop condition, hence the unchecked reads *)
  let byte k = Char.code (String.unsafe_get s k) in
  while fin - !i >= 8 do
    let k = !i in
    let a =
      !c
      lxor (byte k
           lor (byte (k + 1) lsl 8)
           lor (byte (k + 2) lsl 16)
           lor (byte (k + 3) lsl 24))
    in
    let b =
      byte (k + 4)
      lor (byte (k + 5) lsl 8)
      lor (byte (k + 6) lsl 16)
      lor (byte (k + 7) lsl 24)
    in
    c :=
      Array.unsafe_get tab ((7 * 256) + (a land 0xff))
      lxor Array.unsafe_get tab ((6 * 256) + ((a lsr 8) land 0xff))
      lxor Array.unsafe_get tab ((5 * 256) + ((a lsr 16) land 0xff))
      lxor Array.unsafe_get tab ((4 * 256) + (a lsr 24))
      lxor Array.unsafe_get tab ((3 * 256) + (b land 0xff))
      lxor Array.unsafe_get tab ((2 * 256) + ((b lsr 8) land 0xff))
      lxor Array.unsafe_get tab ((1 * 256) + ((b lsr 16) land 0xff))
      lxor Array.unsafe_get tab (b lsr 24);
    i := k + 8
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

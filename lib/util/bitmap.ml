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

(* Word kernels. The bytes are scanned eight at a time as little-endian
   int64 words, so bit [i] of the map is bit [i mod 64] of the word at
   byte [8 * (i / 64)]: the persisted layout, read wider. A trailing
   [Bytes.length mod 8] bytes go one at a time. *)

let full_words bits = Bytes.length bits land lnot 7

let popcount_byte =
  let table = Array.make 256 0 in
  for i = 1 to 255 do
    table.(i) <- table.(i lsr 1) + (i land 1)
  done;
  fun c -> table.(Char.code c)

let[@inline] popcount64 x =
  let x = Int64.sub x (Int64.logand (Int64.shift_right_logical x 1) 0x5555555555555555L) in
  let x =
    Int64.add
      (Int64.logand x 0x3333333333333333L)
      (Int64.logand (Int64.shift_right_logical x 2) 0x3333333333333333L)
  in
  let x = Int64.logand (Int64.add x (Int64.shift_right_logical x 4)) 0x0f0f0f0f0f0f0f0fL in
  Int64.to_int (Int64.shift_right_logical (Int64.mul x 0x0101010101010101L) 56)

let count t =
  let bits = t.bits in
  let full = full_words bits in
  let n = ref 0 in
  let i = ref 0 in
  while !i < full do
    let w = Bytes.get_int64_le bits !i in
    if w <> 0L then n := !n + popcount64 w;
    i := !i + 8
  done;
  for j = full to Bytes.length bits - 1 do
    n := !n + popcount_byte (Bytes.get bits j)
  done;
  !n

type op = Or | And | Andnot

let[@inline] apply op x y =
  match op with
  | Or -> Int64.logor x y
  | And -> Int64.logand x y
  | Andnot -> Int64.logand x (Int64.lognot y)

(* [dst.(i) <- op a.(i) b.(i)] over every byte; [dst] may be [a]. *)
let combine op ~dst a b =
  let full = full_words a in
  let i = ref 0 in
  while !i < full do
    Bytes.set_int64_le dst !i
      (apply op (Bytes.get_int64_le a !i) (Bytes.get_int64_le b !i));
    i := !i + 8
  done;
  for j = full to Bytes.length a - 1 do
    let x = Int64.of_int (Char.code (Bytes.get a j))
    and y = Int64.of_int (Char.code (Bytes.get b j)) in
    Bytes.set dst j (Char.unsafe_chr (Int64.to_int (apply op x y) land 0xff))
  done

let map2 op a b =
  if a.length <> b.length then invalid_arg "Bitmap: length mismatch";
  let r = create a.length in
  combine op ~dst:r.bits a.bits b.bits;
  r

let union a b = map2 Or a b
let inter a b = map2 And a b
let diff a b = map2 Andnot a b

let union_into ~dst src =
  if dst.length <> src.length then invalid_arg "Bitmap: length mismatch";
  combine Or ~dst:dst.bits dst.bits src.bits

let is_empty t =
  let bits = t.bits in
  let n = Bytes.length bits in
  let i = ref 0 in
  while !i + 8 <= n && Bytes.get_int64_le bits !i = 0L do
    i := !i + 8
  done;
  while !i < n && Bytes.get bits !i = '\000' do
    incr i
  done;
  !i = n

let subset a b = is_empty (diff a b)

(* Calls [f] on the set bits of byte [byte], lowest first. *)
let iter_byte f byte c =
  for bit = 0 to 7 do
    if c land (1 lsl bit) <> 0 then f ((byte lsl 3) lor bit)
  done

let iter_set f t =
  let bits = t.bits in
  let full = full_words bits in
  let bytes lo hi =
    for byte = lo to hi - 1 do
      let c = Char.code (Bytes.get bits byte) in
      if c <> 0 then iter_byte f byte c
    done
  in
  let i = ref 0 in
  while !i < full do
    if Bytes.get_int64_le bits !i <> 0L then bytes !i (!i + 8);
    i := !i + 8
  done;
  bytes full (Bytes.length bits)

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

(* Plane transposes. Word [i] of the buffer is the little-endian u32 at
   byte [4i]; its bit [p] is bit [first + i] of plane [p]. Plane bit
   [first + i] is bit [i land 7] of plane byte [(first + i) lsr 3], so
   with [first] a multiple of 8, plane byte [first / 8 + k] holds words
   [8k .. 8k+7]. *)

let check_transpose name planes ~first ~count buf_len =
  if
    Array.length planes > 32
    || first < 0
    || first land 7 <> 0
    || count < 0
    || buf_len < 4 * count
  then invalid_arg name;
  for p = 0 to Array.length planes - 1 do
    if planes.(p).length < first + count then invalid_arg name
  done

let to_words planes ~first ~count dst =
  check_transpose "Bitmap.to_words" planes ~first ~count (Bytes.length dst);
  Bytes.fill dst 0 (4 * count) '\000';
  let lo = first lsr 3 and hi = (first + count + 7) lsr 3 in
  for p = 0 to Array.length planes - 1 do
    let bits = planes.(p).bits and lane = p lsr 3 and mask = 1 lsl (p land 7) in
    let word = ref lo in
    while !word < hi do
      let stop = if !word + 8 < hi then !word + 8 else hi in
      if stop - !word < 8 || Bytes.get_int64_le bits !word <> 0L then
        for byte = !word to stop - 1 do
          let c = Char.code (Bytes.get bits byte) in
          if c <> 0 then
            for bit = 0 to 7 do
              let i = ((byte - lo) lsl 3) lor bit in
              if c land (1 lsl bit) <> 0 && i < count then begin
                let o = (4 * i) + lane in
                Bytes.set dst o (Char.unsafe_chr (Char.code (Bytes.get dst o) lor mask))
              end
            done
        done;
      word := stop
    done
  done

(* Clears bits [lo, hi) of [t]; [lo] is a multiple of 8. *)
let clear_from_aligned t lo hi =
  let full = hi lsr 3 in
  Bytes.fill t.bits (lo lsr 3) (full - (lo lsr 3)) '\000';
  let rem = hi land 7 in
  if rem <> 0 then
    Bytes.set t.bits full
      (Char.unsafe_chr (Char.code (Bytes.get t.bits full) land lnot ((1 lsl rem) - 1)))

(* Sets bit [v] in every plane whose bit is set in word [w]. *)
let scatter_word planes v w =
  if w <> 0 then begin
    let byte = v lsr 3 and mask = 1 lsl (v land 7) in
    for p = 0 to Array.length planes - 1 do
      if w land (1 lsl p) <> 0 then begin
        let bits = planes.(p).bits in
        Bytes.set bits byte (Char.unsafe_chr (Char.code (Bytes.get bits byte) lor mask))
      end
    done
  end

let u32 src j = Int32.to_int (String.get_int32_le src (4 * j)) land 0xffffffff

let of_words planes ~first ~count src =
  check_transpose "Bitmap.of_words" planes ~first ~count (String.length src);
  for p = 0 to Array.length planes - 1 do
    clear_from_aligned planes.(p) first (first + count)
  done;
  let i = ref 0 in
  while !i < count do
    (* two words at a time, both skipped when zero *)
    let pair = !i + 1 < count in
    if (not pair) || String.get_int64_le src (4 * !i) <> 0L then begin
      scatter_word planes (first + !i) (u32 src !i);
      if pair then scatter_word planes (first + !i + 1) (u32 src (!i + 1))
    end;
    i := !i + 2
  done

let write w t =
  Serde.write_u32 w t.length;
  Serde.write_bytes w t.bits

let read r =
  let length = Serde.read_u32 r in
  let bits = Bytes.of_string (Serde.read_fixed r ((length + 7) / 8)) in
  let t = { bits; length } in
  mask_tail t;
  t

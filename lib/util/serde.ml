exception Corrupt of string

let corrupt fmt = Format.kasprintf (fun s -> raise (Corrupt s)) fmt

type writer = Buffer.t

let writer ?(initial_size = 256) () = Buffer.create initial_size

let write_u8 w v =
  if v < 0 || v > 0xff then invalid_arg "Serde.write_u8";
  Buffer.add_char w (Char.chr v)

let write_u16 w v =
  if v < 0 || v > 0xffff then invalid_arg "Serde.write_u16";
  Buffer.add_char w (Char.chr (v land 0xff));
  Buffer.add_char w (Char.chr ((v lsr 8) land 0xff))

let write_u32 w v =
  if v < 0 || v > 0xffffffff then invalid_arg "Serde.write_u32";
  write_u16 w (v land 0xffff);
  write_u16 w ((v lsr 16) land 0xffff)

let write_u64 w v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 v;
  Buffer.add_bytes w b

let write_int w v = write_u64 w (Int64.of_int v)
let write_bool w v = write_u8 w (if v then 1 else 0)

let write_string w s =
  write_u32 w (String.length s);
  Buffer.add_string w s

let write_fixed w s = Buffer.add_string w s
let write_bytes w b = Buffer.add_bytes w b
let write_float w f = write_u64 w (Int64.bits_of_float f)

let write_option f w = function
  | None -> write_bool w false
  | Some v ->
    write_bool w true;
    f w v

type count = U8 | U16 | U32

let write_count c w n =
  match c with U8 -> write_u8 w n | U16 -> write_u16 w n | U32 -> write_u32 w n

let write_list c f w l =
  write_count c w (List.length l);
  List.iter (f w) l

let write_array c f w a =
  write_count c w (Array.length a);
  Array.iter (f w) a

let writer_length w = Buffer.length w
let clear w = Buffer.clear w
let contents w = Buffer.contents w

type reader = { data : string; mutable pos : int }

let reader ?(pos = 0) data = { data; pos }

let need r n =
  if r.pos + n > String.length r.data then
    corrupt "truncated input: need %d bytes at offset %d (length %d)" n r.pos
      (String.length r.data)

let read_u8 r =
  need r 1;
  let v = Char.code r.data.[r.pos] in
  r.pos <- r.pos + 1;
  v

let read_u16 r =
  let lo = read_u8 r in
  let hi = read_u8 r in
  lo lor (hi lsl 8)

let read_u32 r =
  let lo = read_u16 r in
  let hi = read_u16 r in
  lo lor (hi lsl 16)

let read_u64 r =
  need r 8;
  let v = String.get_int64_le r.data r.pos in
  r.pos <- r.pos + 8;
  v

let read_int r =
  let v = read_u64 r in
  Int64.to_int v

let read_bool r =
  match read_u8 r with
  | 0 -> false
  | 1 -> true
  | n -> corrupt "invalid boolean byte %d" n

let read_fixed r n =
  if n < 0 then corrupt "negative length %d" n;
  need r n;
  let s = String.sub r.data r.pos n in
  r.pos <- r.pos + n;
  s

let read_string r =
  let n = read_u32 r in
  read_fixed r n

let remaining r = String.length r.data - r.pos
let at_end r = remaining r = 0
let read_float r = Int64.float_of_bits (read_u64 r)
let read_option f r = if read_bool r then Some (f r) else None

let read_count c r =
  let n = match c with U8 -> read_u8 r | U16 -> read_u16 r | U32 -> read_u32 r in
  if n > remaining r then
    corrupt "count %d exceeds the %d bytes left at offset %d" n (remaining r) r.pos;
  n

let read_list c f r =
  let n = read_count c r in
  List.init n (fun _ -> f r)

let read_array c f r =
  let n = read_count c r in
  Array.init n (fun _ -> f r)

let expect_magic r m =
  let got = read_fixed r (String.length m) in
  if not (String.equal got m) then corrupt "bad magic: expected %S, got %S" m got

let size = 4096

type addr = int

let zero () = Bytes.make size '\000'
let zeros = String.make size '\000'

(* Eight bytes at a time; a ragged tail only past the last whole word. *)
let is_zero b =
  let n = String.length b in
  let i = ref 0 in
  while !i + 8 <= n && String.get_int64_le b !i = 0L do
    i := !i + 8
  done;
  while !i < n && String.get b !i = '\000' do
    incr i
  done;
  !i = n

external xor_unchecked : bytes -> string -> unit = "repro_block_xor" [@@noalloc]

let xor_into dst src =
  if String.length src < Bytes.length dst then
    invalid_arg
      (Printf.sprintf "Block.xor_into: source is %d bytes, destination %d"
         (String.length src) (Bytes.length dst));
  xor_unchecked dst src

let check b =
  if String.length b <> size then
    invalid_arg
      (Printf.sprintf "Block.check: buffer is %d bytes, want %d" (String.length b) size)

let blocks_for len =
  if len < 0 then invalid_arg "Block.blocks_for";
  (len + size - 1) / size

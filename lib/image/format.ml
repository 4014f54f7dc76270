module Serde = Repro_util.Serde
module Crc32 = Repro_util.Crc32

let stream_magic = "WIMG1"
let max_extent_blocks = 64
let block_size = 4096

type kind = Full | Incremental

type header = {
  kind : kind;
  snap_name : string;
  base_name : string;
  volume_blocks : int;
  block_count : int;
  dump_date : float;
  generation : int;
}

let encode_header h =
  let open Serde in
  let w = writer () in
  write_fixed w stream_magic;
  write_u8 w (match h.kind with Full -> 0 | Incremental -> 1);
  write_string w h.snap_name;
  write_string w h.base_name;
  write_u32 w h.volume_blocks;
  write_u32 w h.block_count;
  write_float w h.dump_date;
  write_u32 w h.generation;
  let body = contents w in
  let crc = Crc32.string body in
  let w2 = writer () in
  write_u32 w2 (String.length body);
  write_fixed w2 body;
  write_u32 w2 crc;
  contents w2

let decode_header r =
  let open Serde in
  let len = read_u32 r in
  let body = read_fixed r len in
  let crc = read_u32 r in
  if crc <> Crc32.string body then raise (Corrupt "image header checksum mismatch");
  let r = reader body in
  expect_magic r stream_magic;
  let kind =
    match read_u8 r with
    | 0 -> Full
    | 1 -> Incremental
    | n -> raise (Corrupt (Printf.sprintf "bad image kind %d" n))
  in
  let snap_name = read_string r in
  let base_name = read_string r in
  let volume_blocks = read_u32 r in
  let block_count = read_u32 r in
  let dump_date = read_float r in
  let generation = read_u32 r in
  { kind; snap_name; base_name; volume_blocks; block_count; dump_date; generation }

let read_header input =
  let len_bytes = input 4 in
  let len = Int32.to_int (String.get_int32_le len_bytes 0) land 0xffffffff in
  if len > 1_000_000 then raise (Serde.Corrupt "implausible image header length");
  let rest = input (len + 4) in
  decode_header (Serde.reader (len_bytes ^ rest))

type record = Extent of { vbn : int; blocks : string array } | Trailer of { fsinfo : string }

let tag_extent = 1
let tag_trailer = 2

(* Tag, vbn, block count and CRC, then the blocks. *)
let extent_header = 11

(* The head carries the CRC of the blocks, so it is computed over them
   where they are stored; then each block goes to [output] as it is, to
   be copied once, into the writer's own buffer. *)
let write_extent output ~vbn blocks =
  let n = Array.length blocks in
  if
    n = 0 || n > max_extent_blocks || vbn < 0 || vbn > 0xffffffff
    || Array.exists (fun b -> String.length b <> block_size) blocks
  then invalid_arg "Format.write_extent";
  let crc = Array.fold_left Crc32.update_string Crc32.init blocks in
  let h = Bytes.create extent_header in
  Bytes.set_uint8 h 0 tag_extent;
  Bytes.set_int32_le h 1 (Int32.of_int vbn);
  Bytes.set_uint16_le h 5 n;
  Bytes.set_int32_le h 7 (Int32.of_int (Crc32.finish crc));
  output (Bytes.unsafe_to_string h);
  Array.iter output blocks

let encode_trailer ~fsinfo =
  if String.length fsinfo <> block_size then invalid_arg "Format.encode_trailer";
  let open Serde in
  let w = writer () in
  write_u8 w tag_trailer;
  write_u32 w (Crc32.string fsinfo);
  write_fixed w fsinfo;
  contents w

(* Each block is one [input block_size] string, the string the restore
   stores; the CRC runs over them, and nothing is returned until it
   matches. *)
let read_record ~after input =
  let open Serde in
  let byte s = Char.code s.[0] in
  let tag = byte (input 1) in
  if tag = tag_extent then begin
    let hdr = input 10 in
    let r = reader hdr in
    let vbn = read_u32 r in
    let n = read_u16 r in
    let crc = read_u32 r in
    if n = 0 || n > max_extent_blocks then
      raise (Corrupt (Printf.sprintf "extent at vbn %d has bad count %d" vbn n));
    if vbn <= after then
      raise (Corrupt (Printf.sprintf "extent at vbn %d does not follow vbn %d" vbn after));
    let blocks = Array.init n (fun _ -> input block_size) in
    if Crc32.finish (Array.fold_left Crc32.update_string Crc32.init blocks) <> crc then
      raise (Corrupt (Printf.sprintf "extent at vbn %d fails checksum" vbn));
    Extent { vbn; blocks }
  end
  else if tag = tag_trailer then begin
    let r = reader (input 4) in
    let crc = read_u32 r in
    let fsinfo = input block_size in
    if Crc32.string fsinfo <> crc then raise (Corrupt "trailer fsinfo fails checksum");
    Trailer { fsinfo }
  end
  else raise (Corrupt (Printf.sprintf "unknown image record tag %d" tag))

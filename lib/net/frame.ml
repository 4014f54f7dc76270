module Serde = Repro_util.Serde
module Crc32 = Repro_util.Crc32

let magic = "RNF1"
let overhead = String.length magic + 4 + 4 + 4

(* Self-profiling: framing (CRC + serialization) is a per-record host
   cost, one of the hot seams the speed bench attributes. *)
let p_frame = Repro_prof.Prof.probe "net.frame"
let c_frames = Repro_prof.Prof.counter "net.frames"

(* The CRC covers the sequence number as well as the payload: a damaged
   seq must not deliver an intact payload into the wrong slot. The four
   little-endian seq bytes are fed directly (their range is checked in
   [encode] and implied by the u32 read in [decode]). *)
let crc_of ~seq s off len =
  let c = Crc32.init in
  let c = Crc32.update_byte c (seq land 0xff) in
  let c = Crc32.update_byte c ((seq lsr 8) land 0xff) in
  let c = Crc32.update_byte c ((seq lsr 16) land 0xff) in
  let c = Crc32.update_byte c ((seq lsr 24) land 0xff) in
  Crc32.finish (Crc32.update_substring c s off len)

let set_u32 b off v = Bytes.set_int32_le b off (Int32.of_int v)
let get_u32 s off = Int32.to_int (String.get_int32_le s off) land 0xffff_ffff

(* Header and payload go straight into the one image: the payload is
   copied once and checksummed once. *)
let encode ~seq payload =
  if seq < 0 || seq > 0xffff_ffff then invalid_arg "Frame.encode: seq";
  let tok = Repro_prof.Prof.enter p_frame in
  let len = String.length payload in
  let crc = crc_of ~seq payload 0 len in
  let b = Bytes.create (overhead + len) in
  Bytes.blit_string magic 0 b 0 (String.length magic);
  set_u32 b 4 seq;
  set_u32 b 8 crc;
  set_u32 b 12 len;
  Bytes.blit_string payload 0 b overhead len;
  Repro_prof.Prof.leave tok;
  Repro_prof.Prof.bump c_frames;
  Bytes.unsafe_to_string b

let magic_word = String.get_int32_le magic 0

let corrupt tok msg =
  Repro_prof.Prof.leave tok;
  raise (Serde.Corrupt msg)

(* Every check reads the image in place, so an inflated length field
   costs a comparison, not an allocation. *)
let decode s =
  let tok = Repro_prof.Prof.enter p_frame in
  let n = String.length s in
  if n < overhead then
    corrupt tok (Printf.sprintf "frame: truncated header (%d bytes)" n);
  if not (Int32.equal (String.get_int32_le s 0) magic_word) then
    corrupt tok (Printf.sprintf "frame: bad magic %S" (String.sub s 0 4));
  let seq = get_u32 s 4 in
  let len = get_u32 s 12 in
  if len > n - overhead then
    corrupt tok
      (Printf.sprintf "frame %d: length %d exceeds the %d-byte image" seq len n);
  if crc_of ~seq s overhead len <> get_u32 s 8 then
    corrupt tok (Printf.sprintf "frame %d: header CRC mismatch" seq);
  Repro_prof.Prof.leave tok;
  Repro_prof.Prof.bump c_frames;
  (seq, overhead, len)

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
   little-endian seq bytes are fed directly (their range is checked by
   the u32 write in [encode] and implied by the u32 read in [decode]). *)
let crc_of ~seq payload =
  let c = Crc32.init in
  let c = Crc32.update_byte c (seq land 0xff) in
  let c = Crc32.update_byte c ((seq lsr 8) land 0xff) in
  let c = Crc32.update_byte c ((seq lsr 16) land 0xff) in
  let c = Crc32.update_byte c ((seq lsr 24) land 0xff) in
  Crc32.finish (Crc32.update_string c payload)

(* One warm buffer per domain for all its encodes (a frame image is
   built and copied out before the domain's next encode can begin): the
   per-frame writer allocation goes away, only the final contents copy
   remains. *)
let encode_pool = Domain.DLS.new_key (fun () -> Serde.writer ~initial_size:4096 ())

let encode ~seq payload =
  let tok = Repro_prof.Prof.enter p_frame in
  let w = Domain.DLS.get encode_pool in
  Serde.clear w;
  Serde.write_fixed w magic;
  Serde.write_u32 w seq;
  Serde.write_u32 w (crc_of ~seq payload);
  Serde.write_string w payload;
  let s = Serde.contents w in
  Repro_prof.Prof.leave tok;
  Repro_prof.Prof.bump c_frames;
  s

let decode s =
  let tok = Repro_prof.Prof.enter p_frame in
  let r = Serde.reader s in
  Serde.expect_magic r magic;
  let seq = Serde.read_u32 r in
  let crc = Serde.read_u32 r in
  let payload = Serde.read_string r in
  if crc_of ~seq payload <> crc then begin
    Repro_prof.Prof.leave tok;
    raise (Serde.Corrupt (Printf.sprintf "frame %d: header CRC mismatch" seq))
  end;
  Repro_prof.Prof.leave tok;
  Repro_prof.Prof.bump c_frames;
  (seq, payload)

module Serde = Repro_util.Serde
module Persist = Repro_block.Persist
module Fs = Repro_wafl.Fs

let magic = "RSTORE1"

let save ~path engine =
  Fs.cp (Engine.fs engine);
  let w = Serde.writer ~initial_size:(1 lsl 20) () in
  Serde.write_fixed w magic;
  Persist.write w (Fs.volume (Engine.fs engine));
  Engine.save w engine;
  Repro_util.Atomic_file.write path (fun oc -> output_string oc (Serde.contents w))

let load ~path =
  let r = Serde.reader (In_channel.with_open_bin path In_channel.input_all) in
  Serde.expect_magic r magic;
  let fs = Fs.mount (Persist.read r) in
  Engine.load r ~fs

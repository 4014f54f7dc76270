module Volume = Repro_block.Volume
module Fs = Repro_wafl.Fs
module Tape = Repro_tape.Tape
module Library = Repro_tape.Library
module Tapeio = Repro_tape.Tapeio

type error = Not_initialized | Snapshot_gap of { base : string }

exception Error of error

let error_message = function
  | Not_initialized -> "mirror not initialized"
  | Snapshot_gap { base } ->
    Printf.sprintf
      "mirror base snapshot %s no longer exists on the source (resync \
       required)"
      base

type t = {
  label : string;
  vol : Volume.t;
  link_mb_s : float;
  mutable last : string option;
  mutable seq : int;
}

type transfer = {
  snapshot : string;
  blocks : int;
  payload_bytes : int;
  link_seconds : float;
}

let create ?(link_mb_s = 12.5) ~label vol =
  if link_mb_s <= 0.0 then invalid_arg "Mirror.create";
  { label; vol; link_mb_s; last = None; seq = 0 }


(* The replication link, modeled as a streaming device: uncompressed,
   effectively unbounded capacity, one "cartridge" per transfer. *)
let link t =
  t.seq <- t.seq + 1;
  Library.create
    ~params:
      (Tape.params ~native_mb_s:t.link_mb_s ~compression:1.0
         ~capacity_bytes:max_int ())
    ~slots:1
    ~label:(Printf.sprintf "%s.link%d" t.label t.seq)
    ()

let ship t ~dump =
  let lib = link t in
  let sink = Tapeio.sink lib in
  let result : Image_dump.result = dump ~sink in
  let src = Tapeio.source lib in
  let restored = Image_restore.apply ~volume:t.vol src in
  let drive = Library.drive lib in
  {
    snapshot = restored.Image_restore.snap_name;
    blocks = restored.Image_restore.blocks_restored;
    payload_bytes = result.Image_dump.bytes_written;
    link_seconds = Tape.busy_seconds drive;
  }

let initialize t ~from ~snapshot =
  let xfer = ship t ~dump:(fun ~sink -> Image_dump.full ~fs:from ~snapshot ~sink ()) in
  t.last <- Some snapshot;
  xfer

let update t ~from ~snapshot =
  match t.last with
  | None -> raise (Error Not_initialized)
  | Some base ->
    if not (List.exists (fun (s : Fs.snap_info) -> s.Fs.name = base) (Fs.snapshots from))
    then raise (Error (Snapshot_gap { base }));
    let xfer =
      ship t ~dump:(fun ~sink -> Image_dump.incremental ~fs:from ~base ~snapshot ~sink ())
    in
    t.last <- Some snapshot;
    xfer

let mount t = Fs.mount t.vol

module Serde = Repro_util.Serde

let magic = "RVOL1"

(* 16 GiB of 4 KB blocks: a hundred times the largest volume anything in
   this repository builds (the 64 MB paper run: 3 groups of 11 disks of
   1,229 blocks), so a flipped high bit in a geometry field is damage,
   not a volume to allocate. *)
let max_volume_blocks = 1 lsl 22

(* Groups x disks x blocks per disk, counted without overflow, of a
   geometry Volume.geometry accepts. *)
let fits (g : Volume.geometry) =
  g.blocks_per_disk <= max_volume_blocks / (g.groups * g.disks_per_group)

let write w vol =
  let g = Volume.geometry_of vol in
  if not (fits g) then invalid_arg "Persist.write: volume above max_volume_blocks";
  Serde.write_fixed w magic;
  Serde.write_string w (Volume.label vol);
  Serde.write_u16 w g.Volume.groups;
  Serde.write_u16 w g.Volume.disks_per_group;
  Serde.write_u32 w g.Volume.blocks_per_disk;
  Serde.write_float w g.Volume.disk.Disk.seek_ms;
  Serde.write_float w g.Volume.disk.Disk.transfer_mb_s;
  let nonzero = ref [] in
  for vbn = 0 to Volume.size_blocks vol - 1 do
    let b = Volume.read vol vbn in
    if not (Block.is_zero b) then nonzero := (vbn, b) :: !nonzero
  done;
  Serde.write_list Serde.U32
    (fun w (vbn, b) ->
      Serde.write_u32 w vbn;
      Serde.write_fixed w b)
    w (List.rev !nonzero)

let corrupt fmt = Printf.ksprintf (fun s -> raise (Serde.Corrupt ("RVOL1: " ^ s))) fmt

let read r =
  Serde.expect_magic r magic;
  let label = Serde.read_string r in
  let groups = Serde.read_u16 r in
  let disks_per_group = Serde.read_u16 r in
  let blocks_per_disk = Serde.read_u32 r in
  let seek_ms = Serde.read_float r in
  let transfer_mb_s = Serde.read_float r in
  if not (Float.is_finite seek_ms && seek_ms >= 0.0) then corrupt "seek time %h ms" seek_ms;
  if not (Float.is_finite transfer_mb_s && transfer_mb_s > 0.0) then
    corrupt "transfer rate %h MB/s" transfer_mb_s;
  let disk = { Disk.blocks = blocks_per_disk; seek_ms; transfer_mb_s } in
  let geometry =
    try Volume.geometry ~groups ~disks_per_group ~disk ~blocks_per_disk ()
    with Invalid_argument _ ->
      corrupt "geometry %d groups x %d disks x %d blocks" groups disks_per_group blocks_per_disk
  in
  if not (fits geometry) then
    corrupt "geometry %d groups x %d disks x %d blocks exceeds %d blocks" groups
      disks_per_group blocks_per_disk max_volume_blocks;
  let vol = Volume.create ~label geometry in
  (* Persist.write lists the blocks in ascending vbn order, the order the
     writer takes them in. *)
  let n = Serde.read_count Serde.U32 r in
  let vbns = Array.make n 0 and blocks = Array.make n Block.zeros in
  for i = 0 to n - 1 do
    let vbn = Serde.read_u32 r in
    if vbn >= Volume.size_blocks vol then
      corrupt "vbn %d outside %d blocks" vbn (Volume.size_blocks vol);
    if i > 0 && vbn <= vbns.(i - 1) then corrupt "vbn %d after vbn %d" vbn vbns.(i - 1);
    vbns.(i) <- vbn;
    blocks.(i) <- Serde.read_fixed r Block.size
  done;
  Volume.write_batch vol vbns blocks;
  Volume.reset_stats vol;
  vol

module Serde = Repro_util.Serde

let magic = "RVOL1"

let write w vol =
  let g = Volume.geometry_of vol in
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

let rec check_vbns size = function
  | [] -> ()
  | (vbn, _) :: rest ->
    if vbn >= size then corrupt "vbn %d outside %d blocks" vbn size;
    check_vbns size rest

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
  let vol = Volume.create ~label geometry in
  let blocks =
    Serde.read_list Serde.U32
      (fun r ->
        let vbn = Serde.read_u32 r in
        (vbn, Serde.read_fixed r Block.size))
      r
  in
  check_vbns (Volume.size_blocks vol) blocks;
  Volume.write_batch vol blocks;
  Volume.reset_stats vol;
  vol

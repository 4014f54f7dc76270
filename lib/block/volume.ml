type geometry = {
  groups : int;
  disks_per_group : int;
  blocks_per_disk : int;
  disk : Disk.params;
}

let geometry ?(groups = 1) ?(disks_per_group = 8) ?disk ~blocks_per_disk () =
  let disk =
    match disk with Some d -> d | None -> Disk.default_params ~blocks:blocks_per_disk
  in
  if groups <= 0 || disks_per_group < 3 || blocks_per_disk <= 0 then
    invalid_arg "Volume.geometry";
  { groups; disks_per_group; blocks_per_disk; disk }

let small_geometry ~data_blocks =
  let disks_per_group = 8 in
  let data = disks_per_group - 1 in
  let blocks_per_disk = (data_blocks + data - 1) / data in
  geometry ~groups:1 ~disks_per_group ~blocks_per_disk ()

type t = {
  label : string;
  geom : geometry;
  rgroups : Raid.t array;
  group_data : int; (* data blocks per group *)
  resource : Repro_sim.Resource.t;
}

let create ~label g =
  let resource = Repro_sim.Resource.create (Printf.sprintf "disk:%s" label) in
  let total_disks = g.groups * g.disks_per_group in
  let service_scale = 1.0 /. Float.of_int total_disks in
  let groups =
    Array.init g.groups (fun i ->
        Raid.create ~resource ~service_scale
          ~label:(Printf.sprintf "%s.rg%d" label i)
          ~ndisks:g.disks_per_group ~blocks_per_disk:g.blocks_per_disk g.disk)
  in
  { label; geom = g; rgroups = groups;
    group_data = (g.disks_per_group - 1) * g.blocks_per_disk; resource }

let geometry_of t = t.geom
let label t = t.label
let size_blocks t = Array.length t.rgroups * t.group_data
let resource t = t.resource
let raid_groups t = t.rgroups

let locate t vbn =
  if vbn < 0 || vbn >= size_blocks t then
    invalid_arg (Printf.sprintf "Volume %s: vbn %d out of range [0,%d)" t.label vbn
                   (size_blocks t));
  (t.rgroups.(vbn / t.group_data), vbn mod t.group_data)

let read t vbn =
  let g, gbn = locate t vbn in
  Raid.read g gbn

let p_write = Repro_prof.Prof.probe "block.write"

let write t vbn b =
  let tok = Repro_prof.Prof.enter p_write in
  let g, gbn = locate t vbn in
  match Raid.write g gbn b with
  | () -> Repro_prof.Prof.leave tok
  | exception e ->
    Repro_prof.Prof.leave tok;
    raise e

let read_extent t vbn n =
  if n <= 0 then invalid_arg "Volume.read_extent";
  Array.init n (fun i -> read t (vbn + i))

(* Every vbn is checked before any disk is written: strictly ascending,
   inside the volume, each block a whole one. *)
let check_batch t n vbns blocks =
  if n < 0 || n > Array.length vbns || n > Array.length blocks then
    invalid_arg "Volume.write_batch: length";
  for i = 0 to n - 1 do
    let vbn = vbns.(i) in
    if vbn < 0 || vbn >= size_blocks t then
      invalid_arg
        (Printf.sprintf "Volume %s: vbn %d out of range [0,%d)" t.label vbn (size_blocks t));
    if i > 0 && vbn <= vbns.(i - 1) then
      invalid_arg (Printf.sprintf "Volume.write_batch: vbn %d after vbn %d" vbn vbns.(i - 1));
    Block.check blocks.(i)
  done

(* A run ends at a vbn gap or at its RAID group's last block. The part of
   a run that covers a whole stripe is written with one write_stripe
   call, its edges block by block. *)
let write_batch ?len t vbns blocks =
  Repro_prof.Prof.with_probe p_write @@ fun () ->
  let n = Option.value len ~default:(Array.length vbns) in
  check_batch t n vbns blocks;
  let i = ref 0 in
  while !i < n do
    let start_vbn = vbns.(!i) in
    let g = t.rgroups.(start_vbn / t.group_data) in
    let start_gbn = start_vbn mod t.group_data in
    let width = Raid.data_disks g in
    let run_max = Stdlib.min (n - !i) (t.group_data - start_gbn) in
    let run_len = ref 1 in
    while !run_len < run_max && vbns.(!i + !run_len) = start_vbn + !run_len do
      incr run_len
    done;
    let emitted = ref 0 in
    while !emitted < !run_len do
      let gbn = start_gbn + !emitted in
      if gbn mod width = 0 && !run_len - !emitted >= width then begin
        Raid.write_stripe g (gbn / width) (Array.sub blocks (!i + !emitted) width);
        emitted := !emitted + width
      end
      else begin
        Raid.write g gbn blocks.(!i + !emitted);
        incr emitted
      end
    done;
    i := !i + !run_len
  done

let fail_disk t ~group ~disk = Raid.fail_disk t.rgroups.(group) disk
let rebuild_disk t ~group ~disk = Raid.rebuild_disk t.rgroups.(group) disk

let parity_consistent t =
  Array.for_all (fun g -> Raid.parity_consistent g) t.rgroups

let fold_disks f init t =
  Array.fold_left
    (fun acc g -> Array.fold_left f acc (Raid.disks g))
    init t.rgroups

let total_disks t =
  Array.fold_left (fun acc g -> acc + Raid.ndisks g) 0 t.rgroups

let busy_seconds t =
  fold_disks (fun acc d -> acc +. Disk.busy_seconds d) 0.0 t
  /. Float.of_int (total_disks t)

let bytes_moved t = fold_disks (fun acc d -> acc + Disk.bytes_moved d) 0 t
let seeks t = fold_disks (fun acc d -> acc + Disk.seeks d) 0 t

let media_repairs t =
  Array.fold_left (fun acc g -> acc + Raid.media_repairs g) 0 t.rgroups

let reset_stats t =
  fold_disks
    (fun () d ->
      Disk.reset_stats d;
      ())
    () t

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

(* Group sorted (vbn, block) pairs into maximal runs of consecutive vbns,
   then write any run segment that covers a whole RAID stripe with one
   write_stripe call. *)
let write_batch t blocks =
  Repro_prof.Prof.with_probe p_write @@ fun () ->
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) blocks in
  let arr = Array.of_list sorted in
  let n = Array.length arr in
  let i = ref 0 in
  while !i < n do
    let start_vbn, _ = arr.(!i) in
    let g, start_gbn = locate t start_vbn in
    let width = Raid.data_disks g in
    (* Length of the consecutive run starting at !i that stays in group g. *)
    let run_len = ref 1 in
    let continue = ref true in
    while !continue && !i + !run_len < n do
      let vbn, _ = arr.(!i + !run_len) in
      let g', _ = if vbn < size_blocks t then locate t vbn else (g, 0) in
      if vbn = start_vbn + !run_len && g' == g then incr run_len else continue := false
    done;
    (* Emit the run: full stripes via write_stripe, edges one by one. *)
    let emitted = ref 0 in
    while !emitted < !run_len do
      let gbn = start_gbn + !emitted in
      let left = !run_len - !emitted in
      if gbn mod width = 0 && left >= width then begin
        let stripe = gbn / width in
        let data = Array.init width (fun k -> snd arr.(!i + !emitted + k)) in
        Raid.write_stripe g stripe data;
        emitted := !emitted + width
      end
      else begin
        Raid.write g gbn (snd arr.(!i + !emitted));
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

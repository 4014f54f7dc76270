module Fault = Repro_fault.Fault
module Obs = Repro_obs.Obs

type t = {
  label : string;
  disks : Disk.t array;
  blocks_per_disk : int;
  mutable media_repairs : int;
}

let create ?resource ?(service_scale = 1.0) ~label ~ndisks ~blocks_per_disk params =
  if ndisks < 3 then invalid_arg "Raid.create: need at least 3 disks";
  if blocks_per_disk <= 0 then invalid_arg "Raid.create: empty disks";
  let params = { params with Disk.blocks = blocks_per_disk } in
  let disks =
    Array.init ndisks (fun i ->
        Disk.create ?resource ~service_scale
          ~label:(Printf.sprintf "%s.d%d" label i)
          params)
  in
  { label; disks; blocks_per_disk; media_repairs = 0 }

let ndisks t = Array.length t.disks
let data_disks t = ndisks t - 1
let data_blocks t = data_disks t * t.blocks_per_disk
let disks t = t.disks
let stripes t = t.blocks_per_disk
let parity_index t = ndisks t - 1

let stripe_of_gbn t gbn =
  if gbn < 0 || gbn >= data_blocks t then
    invalid_arg (Printf.sprintf "Raid %s: gbn %d out of range" t.label gbn);
  (gbn / data_disks t, gbn mod data_disks t)

(* A fresh [a xor b xor c]. *)
let xor3 a b c =
  let r = Bytes.of_string a in
  Block.xor_into r b;
  Block.xor_into r c;
  Bytes.unsafe_to_string r

(* Blocks are immutable strings (see {!Block}): this module reads stored
   blocks without copying and only xors from them, and every parity or
   reconstructed block it builds is handed to [Disk.write] and never
   touched again. *)

(* Reconstruct disk [missing]'s block in [stripe] by xoring every other
   disk's block, parity included. *)
let reconstruct t ~missing stripe =
  let acc = Block.zero () in
  Array.iteri
    (fun i d -> if i <> missing then Block.xor_into acc (Disk.read d stripe))
    t.disks;
  Bytes.unsafe_to_string acc

(* Read one disk's block in [stripe] with single-fault recovery:
   - a drive that fails mid-I/O is served degraded, like a disk already
     known dead;
   - a media error (one unreadable sector) is REPAIRED: reconstruct the
     block from the surviving disks and rewrite it in place, which remaps
     the bad sector. A second fault during reconstruction propagates —
     that block is genuinely lost.
   Transient timeouts pass through untouched; retry is the engine's job. *)
let read_disk_repairing t di stripe =
  let disk = t.disks.(di) in
  match Disk.read disk stripe with
  | b -> b
  | exception Disk.Disk_failed _ -> reconstruct t ~missing:di stripe
  | exception Fault.Media_error { device; addr } ->
    Obs.with_span "raid.repair"
      ~attrs:[ ("device", Obs.Str device); ("addr", Obs.Int addr) ]
      (fun () ->
        let b =
          try reconstruct t ~missing:di stripe
          with Disk.Disk_failed _ ->
            (* double fault: a reconstruction source is missing too, so the
               block really is lost — surface it as the media error it is *)
            raise (Fault.Media_error { device; addr })
        in
        (try Disk.write disk stripe b
         with Disk.Disk_failed _ ->
           () (* died before the rewrite: serve degraded *));
        t.media_repairs <- t.media_repairs + 1;
        Obs.count "raid.media_repairs" 1;
        Fault.note_repair ~device ~addr;
        b)

let media_repairs t = t.media_repairs

let read t gbn =
  let stripe, di = stripe_of_gbn t gbn in
  let disk = t.disks.(di) in
  if Disk.failed disk then reconstruct t ~missing:di stripe
  else read_disk_repairing t di stripe

let rec write t gbn b =
  Block.check b;
  let stripe, di = stripe_of_gbn t gbn in
  let data_disk = t.disks.(di) in
  let parity_disk = t.disks.(parity_index t) in
  match (Disk.failed data_disk, Disk.failed parity_disk) with
  | false, false -> (
    (* Read-modify-write: parity ^= old_data ^ new_data. A drive dying
       mid-RMW re-dispatches through the degraded cases; nothing has been
       written yet when the data write fails, and a lost parity write lands
       in the same state as the parity-dead case. *)
    try
      let old_data = read_disk_repairing t di stripe in
      let parity = xor3 (read_disk_repairing t (parity_index t) stripe) old_data b in
      Disk.write data_disk stripe b;
      Disk.write parity_disk stripe parity
    with Disk.Disk_failed _ -> write t gbn b)
  | true, false ->
    (* Degraded write: fold the new data into parity computed from the
       surviving data disks. *)
    let parity = Bytes.of_string b in
    for i = 0 to data_disks t - 1 do
      if i <> di then Block.xor_into parity (Disk.read t.disks.(i) stripe)
    done;
    Disk.write parity_disk stripe (Bytes.unsafe_to_string parity)
  | false, true -> Disk.write data_disk stripe b
  | true, true -> raise (Disk.Disk_failed t.label)

let write_stripe t stripe data =
  if Array.length data <> data_disks t then
    invalid_arg "Raid.write_stripe: wrong data width";
  if stripe < 0 || stripe >= stripes t then invalid_arg "Raid.write_stripe: bad stripe";
  Array.iter Block.check data;
  let parity = Block.zero () in
  Array.iter (fun b -> Block.xor_into parity b) data;
  Array.iteri
    (fun i b -> if not (Disk.failed t.disks.(i)) then Disk.write t.disks.(i) stripe b)
    data;
  let pd = t.disks.(parity_index t) in
  if not (Disk.failed pd) then Disk.write pd stripe (Bytes.unsafe_to_string parity)

let fail_disk t i = Disk.fail t.disks.(i)

let rebuild_disk t i =
  Disk.revive t.disks.(i);
  for stripe = 0 to stripes t - 1 do
    Disk.write t.disks.(i) stripe (reconstruct t ~missing:i stripe)
  done

let parity_consistent t =
  let ok = ref true in
  for stripe = 0 to stripes t - 1 do
    let acc = Block.zero () in
    Array.iter (fun d -> Block.xor_into acc (Disk.read d stripe)) t.disks;
    if not (Block.is_zero (Bytes.unsafe_to_string acc)) then ok := false
  done;
  !ok

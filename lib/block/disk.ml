type params = { blocks : int; seek_ms : float; transfer_mb_s : float }

let default_params ~blocks = { blocks; seek_ms = 9.0; transfer_mb_s = 10.0 }

exception Disk_failed of string

type t = {
  label : string;
  params : params;
  data : string array; (* Block.zeros where never written *)
  resource : Repro_sim.Resource.t option;
  service_scale : float;
  mutable is_failed : bool;
  mutable head : int; (* next contiguous block position; -1 = unknown *)
  mutable busy : float;
  mutable bytes : int;
  mutable seeks : int;
}

let create ?resource ?(service_scale = 1.0) ~label params =
  if params.blocks <= 0 then invalid_arg "Disk.create: no capacity";
  {
    label;
    params;
    data = Array.make params.blocks Block.zeros;
    resource;
    service_scale;
    is_failed = false;
    head = -1;
    busy = 0.0;
    bytes = 0;
    seeks = 0;
  }

let check_access t dbn =
  if t.is_failed then raise (Disk_failed t.label);
  if dbn < 0 || dbn >= t.params.blocks then
    invalid_arg
      (Printf.sprintf "Disk %s: block %d out of range [0,%d)" t.label dbn t.params.blocks)

(* Positioning cost: nothing when the access continues the previous one, a
   short settle (track-to-track plus partial rotation) for a nearby jump,
   the full average seek otherwise. *)
let near_distance = 128
let near_ms = 2.5

let charge t ~op dbn nbytes =
  let distance = abs (dbn - t.head) in
  let position_ms =
    if t.head >= 0 && distance = 0 then 0.0
    else if t.head >= 0 && distance <= near_distance then near_ms
    else t.params.seek_ms
  in
  if position_ms > 0.0 then t.seeks <- t.seeks + 1;
  let service =
    (position_ms /. 1000.0)
    +. (Float.of_int nbytes /. (t.params.transfer_mb_s *. 1_000_000.0))
  in
  t.head <- dbn + 1;
  t.busy <- t.busy +. service;
  t.bytes <- t.bytes + nbytes;
  (* guard keeps the disabled plane to one load-and-branch per block *)
  if Repro_obs.Obs.enabled () then
    Repro_obs.Obs.io ~op ~device:t.label ~addr:dbn ~bytes:nbytes service;
  match t.resource with
  | Some r -> Repro_sim.Resource.charge r ~bytes:nbytes (service *. t.service_scale)
  | None -> ()

(* A plane-scheduled death surfaces exactly like an operator-called
   {!fail}: the disk enters its failed state and raises [Disk_failed], so
   RAID's degraded paths take over. *)
let died t =
  t.is_failed <- true;
  raise (Disk_failed t.label)

let read t dbn =
  check_access t dbn;
  (try Repro_fault.Fault.on_disk_read ~device:t.label ~addr:dbn
   with Repro_fault.Fault.Drive_dead _ -> died t);
  charge t ~op:"disk.read" dbn Block.size;
  t.data.(dbn)

let write t dbn b =
  Block.check b;
  check_access t dbn;
  (try Repro_fault.Fault.on_disk_write ~device:t.label ~addr:dbn
   with Repro_fault.Fault.Drive_dead _ -> died t);
  charge t ~op:"disk.write" dbn Block.size;
  t.data.(dbn) <- b

let fail t = t.is_failed <- true
let failed t = t.is_failed

let revive t =
  t.is_failed <- false;
  t.head <- -1;
  Array.fill t.data 0 (Array.length t.data) Block.zeros

let busy_seconds t = t.busy
let bytes_moved t = t.bytes
let seeks t = t.seeks

let reset_stats t =
  t.busy <- 0.0;
  t.bytes <- 0;
  t.seeks <- 0

(* The benchmark's own layer boundaries. Each public call the traced run
   wants attributed is wrapped in [time]: it enters a [Prof] probe of the
   layer's name, so probes inside the library nest under it, and it adds
   the call's host seconds and allocated bytes (children included) to the
   active sink. With no sink active, [time] is just the call. *)

module Prof = Repro_prof.Prof

type t = { name : string; probe : Prof.probe }
type totals = { mutable calls : int; mutable secs : float; mutable alloc : float }
type sink = (string, totals) Hashtbl.t

let make name = { name; probe = Prof.probe name }
let sink () : sink = Hashtbl.create 16
let current : sink option ref = ref None

let with_sink s f =
  let prev = !current in
  current := Some s;
  Fun.protect ~finally:(fun () -> current := prev) f

let time l f =
  match !current with
  | None -> f ()
  | Some s ->
    let a0 = Gc.allocated_bytes () in
    let t0 = Unix.gettimeofday () in
    let r = Prof.with_probe l.probe f in
    let dt = Unix.gettimeofday () -. t0 in
    let t =
      match Hashtbl.find_opt s l.name with
      | Some t -> t
      | None ->
        let t = { calls = 0; secs = 0.0; alloc = 0.0 } in
        Hashtbl.replace s l.name t;
        t
    in
    t.calls <- t.calls + 1;
    t.secs <- t.secs +. dt;
    t.alloc <- t.alloc +. (Gc.allocated_bytes () -. a0);
    r

let totals (s : sink) l =
  match Hashtbl.find_opt s l.name with
  | Some t -> t
  | None -> { calls = 0; secs = 0.0; alloc = 0.0 }

(* The layers the workloads wrap, named after the modules they enter. *)
let mkfs = make "wafl.mkfs"
let populate = make "workload.populate"
let age = make "workload.age"
let backup_job = make "core.backup_job"
let incremental = make "core.incremental"
let serialize = make "tape.serialize"
let restore_logical = make "core.restore_logical"
let restore_physical = make "core.restore_physical"

(* What one iteration did, and the public calls the workloads share. An
   iteration's timed phase is the sum of its timed operations: set-up of
   fresh targets and verification run between them, off the clock. Each
   timed operation counts itself as attempted and adds its payload. *)

module Volume = Repro_block.Volume
module Persist = Repro_block.Persist
module Fs = Repro_wafl.Fs
module Nvram = Repro_wafl.Nvram
module Library = Repro_tape.Library
module Engine = Repro_backup.Engine
module Catalog = Repro_backup.Catalog
module Strategy = Repro_backup.Strategy
module Serde = Repro_util.Serde
module Crc32 = Repro_util.Crc32
module Compare = Repro_workload.Compare
module Restore = Repro_dump.Restore
module Image_restore = Repro_image.Image_restore

module Prof = Repro_prof.Prof

(** What a timed operation was, for the rate it counts toward. *)
type op = Night | Logical_backup | Physical_backup | Logical_restore | Physical_restore | Churn

type acct = {
  trace : (Prof.t * Layer.sink) option;
      (** a traced iteration arms the profile around each timed operation *)
  replay_sink : Layer.sink option;  (** where a traced fleet replay records *)
  mutable ops : (op * float) list;  (** each timed operation's host seconds, newest first *)
  mutable alloc : float;  (** bytes they allocated *)
  mutable attempted : int;
  mutable failed : int;
  mutable volumes : int;  (** volumes whose work completed *)
  mutable lb_bytes : int;
  mutable pb_bytes : int;
  mutable lr_bytes : int;
  mutable pr_bytes : int;
  mutable days : int;
  mutable incr_blocks : int;  (** blocks shipped by physical incrementals *)
  mutable frames : int;
  mutable retransmits : int;
  mutable blk_bytes : int;  (** block-layer bytes of logical restore targets *)
  mutable blk_seeks : int;
  mutable replayed : int;  (** volumes replayed through per-volume layers *)
  mutable replay_ms : float list;  (** host ms per replayed volume *)
  mutable digest : int;  (** fold of this iteration's tape CRCs *)
}

let fresh ?trace ?replay_sink () =
  {
    trace; replay_sink; ops = []; alloc = 0.0; attempted = 0; failed = 0;
    volumes = 0; lb_bytes = 0; pb_bytes = 0; lr_bytes = 0; pr_bytes = 0;
    days = 0; incr_blocks = 0; frames = 0;
    retransmits = 0; blk_bytes = 0; blk_seeks = 0; replayed = 0; replay_ms = [];
    digest = 0;
  }

let now = Unix.gettimeofday

let clock f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* One timed operation: its host seconds and allocation go to the
   iteration's timed phase. *)
let timed acct op f =
  let a0 = Gc.allocated_bytes () in
  let r, dt =
    clock (fun () ->
        match acct.trace with
        | None -> f ()
        | Some (prof, sink) -> Layer.with_sink sink (fun () -> Prof.with_armed prof f))
  in
  acct.ops <- (op, dt) :: acct.ops;
  acct.alloc <- acct.alloc +. (Gc.allocated_bytes () -. a0);
  r

(* Bytes backed up plus bytes restored. *)
let payload a = a.lb_bytes + a.pb_bytes + a.lr_bytes + a.pr_bytes

(* Host seconds of the iteration's timed phase. *)
let wall acct = List.fold_left (fun s (_, dt) -> s +. dt) 0.0 acct.ops

let attempt acct = acct.attempted <- acct.attempted + 1

(* One verification: an [Error] is a failed operation, reported on
   stderr so a failing run says what broke. *)
let check acct what = function
  | Ok () -> attempt acct
  | Error msgs ->
    attempt acct;
    acct.failed <- acct.failed + 1;
    Printf.eprintf "perfbench: FAILED %s: %s\n%!" what
      (String.concat "; " (List.filteri (fun i _ -> i < 5) msgs))

let expect acct what ok = check acct what (if ok then Ok () else Error [ "check failed" ])

(* A volume image taken once at set-up; every iteration thaws its own
   copy, so every iteration starts from the same blocks and writes the
   same tape bytes. *)
let freeze vol =
  let w = Serde.writer () in
  Persist.write w vol;
  Serde.contents w

let thaw image = Persist.read (Serde.reader image)

let tape_crc lib =
  let w = Serde.writer () in
  Library.save w lib;
  Crc32.string (Serde.contents w)

let fold_digest acc crc = Crc32.string (Printf.sprintf "%d:%d" acc crc)

let backup acct eng job =
  let layer = if job.Engine.Job.level > 0 then Layer.incremental else Layer.backup_job in
  let op =
    match job.Engine.Job.strategy with
    | Strategy.Logical -> Logical_backup
    | Strategy.Physical -> Physical_backup
  in
  let entry = timed acct op (fun () -> Layer.time layer (fun () -> Engine.backup_job eng job)) in
  attempt acct;
  let bytes = entry.Catalog.bytes in
  (match op with
  | Logical_backup -> acct.lb_bytes <- acct.lb_bytes + bytes
  | _ -> acct.pb_bytes <- acct.pb_bytes + bytes);
  entry

let note_logical_restore acct (rs : Restore.apply_result list) =
  attempt acct;
  let bytes = List.fold_left (fun a r -> a + r.Restore.bytes_restored) 0 rs in
  acct.lr_bytes <- acct.lr_bytes + bytes

let restore_logical acct eng ~label ~fs ~target =
  note_logical_restore acct
    (timed acct Logical_restore (fun () ->
         Layer.time Layer.restore_logical (fun () ->
             Engine.restore_logical eng ~label ~fs ~target ~concurrency:4 ())))

let restore_physical acct eng ~label ~volume =
  let rs =
    timed acct Physical_restore (fun () ->
        Layer.time Layer.restore_physical (fun () ->
            Engine.restore_physical eng ~label ~volume ~concurrency:4 ()))
  in
  attempt acct;
  let bytes = List.fold_left (fun a r -> a + r.Image_restore.bytes_read) 0 rs in
  acct.pr_bytes <- acct.pr_bytes + bytes

(* A fresh file system to restore into, with its block counters zeroed
   so they count only the restore's writes. *)
let restore_target ?nvram ~label geometry =
  let vol = Volume.create ~label geometry in
  let fs = Fs.mkfs ?nvram vol in
  Volume.reset_stats vol;
  (vol, fs)

let note_block_stats acct vol =
  acct.blk_bytes <- acct.blk_bytes + Volume.bytes_moved vol;
  acct.blk_seeks <- acct.blk_seeks + Volume.seeks vol

(* The restored trees must equal the source: the logical one as restored,
   the physical one after a mount that passes fsck. *)
let verify_logical acct ~src ~dst = check acct "logical restore matches source" (Compare.trees ~src ~dst ())

let verify_physical acct ~src:(fs, root) vol =
  let pfs = Fs.mount vol in
  check acct "physical restore passes fsck" (Fs.fsck pfs);
  check acct "physical restore matches source" (Compare.trees ~src:(fs, root) ~dst:(pfs, root) ())

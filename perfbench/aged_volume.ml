(* aged-volume: the paper's Table 2/3 set-up on one populated, aged
   volume. A 4-part logical and a 4-part physical backup on 4 local
   drives, then a logical restore into a fresh file system and a physical
   restore onto a fresh volume. This is the per-byte data path: dump,
   image, tape I/O, and the restore write path through WAFL, NVRAM and
   RAID. No net or fleet code runs. *)

open Work
module Generator = Repro_workload.Generator
module Ager = Repro_workload.Ager

let name = "aged-volume"
let data_bytes = 32 * 1024 * 1024
let churn_rounds = 6
let parts = 4
let min_traced = 2

(* Three RAID-4 groups of 11 disks with room for data, metadata,
   snapshots and copy-on-write churn, as in the paper's Table 2 runs. *)
let geometry =
  let data_disks = 3 * 10 in
  let need_blocks = (data_bytes / 4096 * 2) + 4096 in
  Volume.geometry ~groups:3 ~disks_per_group:11
    ~blocks_per_disk:((need_blocks + data_disks - 1) / data_disks)
    ()

(* The paper-scale median file size, with a narrower spread than real
   volumes (sigma 1.0, not 1.3): a few huge files would otherwise make the
   work of one seed differ by a sixth from the next. *)
let profile seed =
  { Generator.default with Generator.seed; median_file_bytes = 24_576.0; sigma = 1.0 }

type built = Volume.t
type state = string

let setup ~seed =
  let vol, fs =
    Layer.time Layer.mkfs (fun () ->
        let vol = Volume.create ~label:"home" geometry in
        (vol, Fs.mkfs ~nvram:(Nvram.create ()) vol))
  in
  ignore
    (Layer.time Layer.populate (fun () ->
         Generator.populate ~profile:(profile seed) ~fs ~root:"/home" ~total_bytes:data_bytes ()));
  ignore
    (Layer.time Layer.age (fun () ->
         Ager.age
           ~churn:{ Ager.default_churn with Ager.seed = seed + 91; rounds = churn_rounds }
           ~fs ~root:"/home" ()));
  Fs.cp fs;
  vol

let freeze_state = freeze

let drives = List.init parts Fun.id

let iterate acct image =
  let fs = Fs.mount ~nvram:(Nvram.create ()) (thaw image) in
  let libs = List.init parts (fun i -> Library.create ~label:(Printf.sprintf "ld%d" i) ()) in
  let eng = Engine.create ~fs ~libraries:libs () in
  let lvol, lfs = restore_target ~nvram:(Nvram.create ()) ~label:"ldst" geometry in
  let pvol = Volume.create ~label:"pdst" geometry in
  ignore
    (backup acct eng
       (Engine.Job.make ~strategy:Strategy.Logical ~subtree:"/home" ~parts ~drives ()));
  ignore (backup acct eng (Engine.Job.make ~strategy:Strategy.Physical ~parts ~drives ()));
  restore_logical acct eng ~label:"/home" ~fs:lfs ~target:"/home";
  note_block_stats acct lvol;
  restore_physical acct eng ~label:"/" ~volume:pvol;
  acct.volumes <- 1;
  verify_logical acct ~src:(fs, "/home") ~dst:(lfs, "/home");
  verify_physical acct ~src:(fs, "/home") pvol;
  acct.digest <- List.fold_left (fun acc lib -> fold_digest acc (tape_crc lib)) 0 libs

(* remote-incremental: a volume backed up at level 0 under both
   strategies to two drives on a remote vault host, then [days] days that
   each age the volume (the writes) and take a logical and a physical
   incremental (the reads). Both restore chains are then shipped back over
   the link and verified. This is the net path (mover, session, frames),
   blockmap plane differences, dumpdates and catalog chains. *)

open Work
module Generator = Repro_workload.Generator
module Ager = Repro_workload.Ager
module Link = Repro_net.Link

let name = "remote-incremental"
let data_bytes = 4 * 1024 * 1024
let days = 6
let parts = 2
let min_traced = 2
let geometry = Volume.small_geometry ~data_blocks:((data_bytes / 4096 * 2) + 4096)

(* A day's churn is 200 operations over two consistency points: enough
   that the size of a day's incrementals varies little from seed to seed. *)
let churn ~seed ~rounds = { Ager.default_churn with Ager.seed; rounds; batch = 100 }

type built = int * Volume.t
type state = { seed : int; image : string }

let setup ~seed =
  let vol, fs =
    Layer.time Layer.mkfs (fun () ->
        let vol = Volume.create ~label:"filer" geometry in
        (vol, Fs.mkfs ~nvram:(Nvram.create ()) vol))
  in
  (* sigma 1.0, not the default 1.4, for the reason aged-volume gives *)
  ignore
    (Layer.time Layer.populate (fun () ->
         Generator.populate ~profile:{ Generator.default with Generator.seed; sigma = 1.0 } ~fs
           ~root:"/data" ~total_bytes:data_bytes ()));
  ignore
    (Layer.time Layer.age (fun () ->
         Ager.age ~churn:(churn ~seed:(seed + 91) ~rounds:2) ~fs ~root:"/data" ()));
  Fs.cp fs;
  (seed, vol)

let freeze_state (seed, vol) = { seed; image = freeze vol }

let backups acct eng ~drives ~level =
  ignore
    (backup acct eng
       (Engine.Job.make ~strategy:Strategy.Logical ~level ~subtree:"/data" ~parts ~drives ()));
  let e = backup acct eng (Engine.Job.make ~strategy:Strategy.Physical ~level ~parts ~drives ()) in
  if level > 0 then acct.incr_blocks <- acct.incr_blocks + (e.Catalog.bytes / Repro_block.Block.size)

let iterate acct st =
  let fs = Fs.mount ~nvram:(Nvram.create ()) (thaw st.image) in
  (* One local stacker that no job uses: every part goes to the vault. *)
  let eng = Engine.create ~fs ~libraries:[ Library.create ~label:"local0" () ] () in
  let vault = List.init parts (fun i -> Library.create ~label:(Printf.sprintf "vault%d" i) ()) in
  let drives = Engine.attach_remote eng ~host:"vault" ~libraries:vault () in
  let lvol, lfs = restore_target ~nvram:(Nvram.create ()) ~label:"ldst" geometry in
  let pvol = Volume.create ~label:"pdst" geometry in
  backups acct eng ~drives ~level:0;
  for day = 1 to days do
    ignore
      (timed acct Churn (fun () ->
           Layer.time Layer.age (fun () ->
               Ager.age ~churn:(churn ~seed:(st.seed + (1000 * day)) ~rounds:2) ~fs ~root:"/data" ())));
    acct.days <- acct.days + 1;
    backups acct eng ~drives ~level:day
  done;
  restore_logical acct eng ~label:"/data" ~fs:lfs ~target:"/data";
  note_block_stats acct lvol;
  restore_physical acct eng ~label:"/" ~volume:pvol;
  acct.volumes <- 1;
  verify_logical acct ~src:(fs, "/data") ~dst:(lfs, "/data");
  verify_physical acct ~src:(fs, "/data") pvol;
  let link = Option.get (Engine.link_to eng ~host:"vault") in
  acct.frames <- acct.frames + Link.frames_sent link;
  acct.retransmits <- acct.retransmits + Link.retransmits link;
  expect acct "no retransmits with no fault plane armed" (Link.retransmits link = 0);
  acct.digest <- List.fold_left (fun acc lib -> fold_digest acc (tape_crc lib)) 0 vault

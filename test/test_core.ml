(* Tests for the core library: catalog chain logic, the backup engine's
   end-to-end flows, instrumentation, and a smoke run of the experiment
   harness (which itself verifies restored trees against the source). *)

module Volume = Repro_block.Volume
module Library = Repro_tape.Library
module Fs = Repro_wafl.Fs
module Strategy = Repro_backup.Strategy
module Catalog = Repro_backup.Catalog
module Engine = Repro_backup.Engine

(* Build a validated job description and run it. *)
let backup eng ~strategy ?level ?subtree ?exclude ?label ?parts ?drives ?resume
    () =
  Engine.backup_job eng
    (Engine.Job.make ~strategy ?level ?subtree ?exclude ?label ?parts ?drives
       ?resume ())
module Instrument = Repro_backup.Instrument
module Experiment = Repro_backup.Experiment
module Resource = Repro_sim.Resource
module Generator = Repro_workload.Generator
module Compare = Repro_workload.Compare

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

(* ------------------------------ catalog ------------------------------ *)

let entry ?(strategy = Strategy.Logical) ?(level = 0) ?(snapshot = "")
    ?(base_snapshot = "") label =
  {
    Catalog.id = 0;
    strategy;
    label;
    level;
    date = 0.0;
    bytes = 0;
    drive = 0;
    stream = 0;
    streams = [ 0 ];
    part_drives = [ 0 ];
    part_hosts = [ "" ];
    media = [];
    snapshot;
    base_snapshot;
    degraded = 0;
  }

let test_catalog_ids_and_persistence () =
  let c = Catalog.create () in
  let e1 = Catalog.add c (entry "home") in
  let e2 = Catalog.add c (entry "home" ~level:1) in
  checki "ids ascend" (e1.Catalog.id + 1) e2.Catalog.id;
  let c' = Catalog.decode (Catalog.encode c) in
  checki "persisted" 2 (List.length (Catalog.entries c'));
  checkb "find" true (Catalog.find c' ~id:e1.Catalog.id <> None)

let test_catalog_logical_chain () =
  let c = Catalog.create () in
  (* classic week: 0, 1, 1, 2 -> chain is 0, second 1, 2 *)
  let _e0 = Catalog.add c (entry "home" ~level:0) in
  let _e1a = Catalog.add c (entry "home" ~level:1) in
  let e1b = Catalog.add c (entry "home" ~level:1) in
  let e2 = Catalog.add c (entry "home" ~level:2) in
  let chain = Catalog.restore_chain c ~label:"home" ~strategy:Strategy.Logical in
  Alcotest.(check (list int))
    "levels 0,1,2 with later 1 superseding"
    [ 0; e1b.Catalog.id; e2.Catalog.id ]
    (match chain with
    | [ a; b; c ] -> [ a.Catalog.level; b.Catalog.id; c.Catalog.id ]
    | _ -> []);
  (* a fresh full resets the chain *)
  let e0b = Catalog.add c (entry "home" ~level:0) in
  let chain2 = Catalog.restore_chain c ~label:"home" ~strategy:Strategy.Logical in
  checki "new full alone" 1 (List.length chain2);
  checki "newest full" e0b.Catalog.id (List.hd chain2).Catalog.id

let test_catalog_physical_chain () =
  let c = Catalog.create () in
  let _f =
    Catalog.add c (entry "vol" ~strategy:Strategy.Physical ~level:0 ~snapshot:"s1")
  in
  let _i1 =
    Catalog.add c
      (entry "vol" ~strategy:Strategy.Physical ~level:1 ~snapshot:"s2" ~base_snapshot:"s1")
  in
  let i2 =
    Catalog.add c
      (entry "vol" ~strategy:Strategy.Physical ~level:1 ~snapshot:"s3" ~base_snapshot:"s2")
  in
  let chain = Catalog.restore_chain c ~label:"vol" ~strategy:Strategy.Physical in
  checki "three links" 3 (List.length chain);
  checki "last is s3" i2.Catalog.id (List.nth chain 2).Catalog.id;
  (* unrelated strategy/label invisible *)
  checki "no logical chain" 0
    (List.length (Catalog.restore_chain c ~label:"vol" ~strategy:Strategy.Logical))

(* A catalog serialized by the RENG2-era encoder (checked-in binary
   fixture, generated from the layout at commit 7c1430c) must still
   decode: entries predate per-part drives and hosts, so both default —
   every part on the entry's drive, every drive local — and an in-flight
   checkpoint comes back resumable with its pool defaulting likewise. *)
let test_catalog_reng2_fixture () =
  let ic = open_in_bin "fixtures/catalog_reng2.bin" in
  let data = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let c = Catalog.decode ~version:2 data in
  let es = Catalog.entries c in
  checki "two entries" 2 (List.length es);
  let e1 = List.nth es 0 and e2 = List.nth es 1 in
  checks "label" "/data" e1.Catalog.label;
  Alcotest.(check (list int)) "streams" [ 0; 1 ] e1.Catalog.streams;
  Alcotest.(check (list int))
    "part drives default to the entry drive" [ 0; 0 ] e1.Catalog.part_drives;
  Alcotest.(check (list string))
    "part hosts default to local" [ ""; "" ] e1.Catalog.part_hosts;
  checki "physical entry keeps its drive" 1 e2.Catalog.drive;
  Alcotest.(check (list int)) "singleton drive list" [ 1 ] e2.Catalog.part_drives;
  checks "snapshot survives" "image.1" e2.Catalog.snapshot;
  match Catalog.checkpoints c with
  | [ ck ] ->
    checks "checkpoint label" "/home" ck.Catalog.ck_label;
    checki "parts" 3 ck.Catalog.ck_parts;
    Alcotest.(check (list int)) "no recorded pool" [] ck.Catalog.ck_drives;
    (match ck.Catalog.ck_done with
    | [ d ] -> checki "done part's drive defaults to ck_drive" 0 d.Catalog.drive
    | _ -> Alcotest.fail "expected one completed part")
  | _ -> Alcotest.fail "expected one checkpoint"

(* ------------------------------- engine ------------------------------ *)

let make_engine ?(blocks = 16384) () =
  let vol = Volume.create ~label:"src" (Volume.small_geometry ~data_blocks:blocks) in
  let fs = Fs.mkfs vol in
  ignore (Generator.populate ~fs ~root:"/data" ~total_bytes:900_000 ());
  let libs = List.init 2 (fun i -> Library.create ~slots:16 ~label:(Printf.sprintf "L%d" i) ()) in
  (Engine.create ~fs ~libraries:libs (), fs)

let test_engine_logical_cycle () =
  let eng, fs = make_engine () in
  let e0 = backup eng ~strategy:Strategy.Logical ~subtree:"/data" () in
  checki "level 0" 0 e0.Catalog.level;
  checkb "bytes recorded" true (e0.Catalog.bytes > 500_000);
  (* mutate then incremental *)
  ignore (Fs.create fs "/data/extra.txt" ~perms:0o644);
  Fs.write fs "/data/extra.txt" ~offset:0 "incrementally yours";
  let e1 = backup eng ~strategy:Strategy.Logical ~level:1 ~subtree:"/data" () in
  checkb "incremental smaller" true (e1.Catalog.bytes * 5 < e0.Catalog.bytes);
  (* restore the chain elsewhere *)
  let dvol = Volume.create ~label:"dst" (Volume.small_geometry ~data_blocks:16384) in
  let dfs = Fs.mkfs dvol in
  let results = Engine.restore_logical eng ~label:"/data" ~fs:dfs ~target:"/restored" () in
  checki "two applications" 2 (List.length results);
  (match Compare.trees ~src:(fs, "/data") ~dst:(dfs, "/restored") () with
  | Ok () -> ()
  | Error d -> Alcotest.failf "mismatch: %s" (String.concat ";" d));
  (* snapshots used by logical backups are cleaned up *)
  checki "no leftover snapshots" 0 (List.length (Fs.snapshots fs))

let test_engine_physical_cycle () =
  let eng, fs = make_engine () in
  let e0 = backup eng ~strategy:Strategy.Physical ~label:"vol" () in
  checks "snapshot kept" "image.1" e0.Catalog.snapshot;
  ignore (Fs.create fs "/data/more.bin" ~perms:0o644);
  Fs.write fs "/data/more.bin" ~offset:0 (String.make 30_000 'm');
  let e1 = backup eng ~strategy:Strategy.Physical ~level:1 ~label:"vol" () in
  checks "chained" e0.Catalog.snapshot e1.Catalog.base_snapshot;
  checkb "old base retired" true
    (List.for_all (fun s -> s.Fs.name <> e0.Catalog.snapshot) (Fs.snapshots fs));
  (* verify then disaster-restore *)
  (match Engine.verify_physical eng ~label:"vol" with
  | Ok blocks -> checkb "verified blocks" true (blocks > 0)
  | Error p -> Alcotest.failf "verify: %s" (String.concat ";" p));
  let nvol =
    Volume.create ~label:"new" (Volume.small_geometry ~data_blocks:16384)
  in
  let results = Engine.restore_physical eng ~label:"vol" ~volume:nvol () in
  checki "chain applied" 2 (List.length results);
  let nfs = Fs.mount nvol in
  match Compare.trees ~src:(fs, "/data") ~dst:(nfs, "/data") () with
  | Ok () -> ()
  | Error d -> Alcotest.failf "mismatch: %s" (String.concat ";" d)

(* Plain multi-part jobs, no faults, no resume: the stream addressing the
   scheduler refactor must preserve. Each part is its own tape stream; the
   restored tree must equal the source for both strategies. Runs through
   the Job API (the logical/physical cycle tests above keep covering the
   removed legacy [Engine.backup] wrapper). *)
let test_engine_multipart_plain () =
  (* logical, three parts on the default single drive *)
  let eng, fs = make_engine () in
  let e =
    Engine.backup_job eng
      (Engine.Job.make ~strategy:Strategy.Logical ~subtree:"/data" ~parts:3 ())
  in
  checki "three streams" 3 (List.length e.Catalog.streams);
  Alcotest.(check (list int)) "streams in part order" [ 0; 1; 2 ] e.Catalog.streams;
  Alcotest.(check (list int))
    "all parts on the default drive" [ 0; 0; 0 ] e.Catalog.part_drives;
  let dvol = Volume.create ~label:"dst" (Volume.small_geometry ~data_blocks:16384) in
  let dfs = Fs.mkfs dvol in
  ignore (Engine.restore_logical eng ~label:"/data" ~fs:dfs ~target:"/restored" ());
  (match Compare.trees ~src:(fs, "/data") ~dst:(dfs, "/restored") () with
  | Ok () -> ()
  | Error d -> Alcotest.failf "logical mismatch: %s" (String.concat ";" d));
  (* physical, two parts *)
  let eng2, fs2 = make_engine () in
  let e2 =
    Engine.backup_job eng2
      (Engine.Job.make ~strategy:Strategy.Physical ~label:"vol" ~parts:2 ())
  in
  checki "two streams" 2 (List.length e2.Catalog.streams);
  let nvol = Volume.create ~label:"new" (Volume.small_geometry ~data_blocks:16384) in
  ignore (Engine.restore_physical eng2 ~label:"vol" ~volume:nvol ());
  let nfs = Fs.mount nvol in
  match Compare.trees ~src:(fs2, "/data") ~dst:(nfs, "/data") () with
  | Ok () -> ()
  | Error d -> Alcotest.failf "physical mismatch: %s" (String.concat ";" d)

(* A two-drive pool: parts land on both stackers, the catalog records each
   part's drive, and a concurrent restore reassembles the tree. *)
let test_engine_concurrent_drives () =
  let eng, fs = make_engine () in
  let e =
    Engine.backup_job eng
      (Engine.Job.make ~strategy:Strategy.Logical ~subtree:"/data" ~parts:4
         ~drives:[ 0; 1 ] ())
  in
  checki "four parts" 4 (List.length e.Catalog.streams);
  checki "drive list parallel to streams" 4 (List.length e.Catalog.part_drives);
  Alcotest.(check (list string))
    "all parts local" [ ""; ""; ""; "" ] e.Catalog.part_hosts;
  Alcotest.(check (list int))
    "both drives used"
    [ 0; 1 ]
    (List.sort_uniq compare e.Catalog.part_drives);
  (match Engine.last_stats eng with
  | None -> Alcotest.fail "no schedule stats"
  | Some st ->
    checkb "positive makespan" true (st.Repro_backup.Scheduler.p_elapsed > 0.0);
    checki "stats cover the pool" 2
      (List.length st.Repro_backup.Scheduler.p_slots));
  let dvol = Volume.create ~label:"dst" (Volume.small_geometry ~data_blocks:16384) in
  let dfs = Fs.mkfs dvol in
  ignore
    (Engine.restore_logical eng ~label:"/data" ~fs:dfs ~target:"/restored"
       ~concurrency:2 ());
  match Compare.trees ~src:(fs, "/data") ~dst:(dfs, "/restored") () with
  | Ok () -> ()
  | Error d -> Alcotest.failf "mismatch: %s" (String.concat ";" d)

let test_engine_selective_restore () =
  let eng, fs = make_engine () in
  ignore (Fs.mkdir fs "/data/keep" ~perms:0o755);
  ignore (Fs.create fs "/data/keep/me.txt" ~perms:0o644);
  Fs.write fs "/data/keep/me.txt" ~offset:0 "precious";
  ignore
    (Engine.backup_job eng
       (Engine.Job.make ~strategy:Strategy.Logical ~subtree:"/data" ()));
  Fs.unlink fs "/data/keep/me.txt";
  let results =
    Engine.restore_logical eng ~label:"/data" ~fs ~target:"/data"
      ~select:[ "keep/me.txt" ] ()
  in
  checki "one stream read" 1 (List.length results);
  checks "file back" "precious" (Fs.read fs "/data/keep/me.txt" ~offset:0 ~len:8)

(* A pool naming a drive the engine does not have is a typed job error,
   raised before the backup takes its snapshot or stores a checkpoint. *)
let test_engine_unknown_drive () =
  List.iter
    (fun strategy ->
      let eng, fs = make_engine () in
      (match backup eng ~strategy ~subtree:"/data" ~drives:[ 0; 2 ] () with
      | _ -> Alcotest.fail "a pool with drive 2 accepted on a 2-drive engine"
      | exception Engine.Job.Invalid (Engine.Job.Unknown_drive 2) -> ());
      checki "no snapshot" 0 (List.length (Fs.snapshots fs));
      checki "no checkpoint" 0 (List.length (Catalog.checkpoints (Engine.catalog eng)));
      checki "no entry" 0 (List.length (Catalog.entries (Engine.catalog eng))))
    Strategy.all

let test_engine_incremental_without_full () =
  let eng, _fs = make_engine () in
  try
    ignore (backup eng ~strategy:Strategy.Physical ~level:1 ());
    Alcotest.fail "expected error"
  with Fs.Error _ -> ()

let test_store_roundtrip () =
  let path = Filename.temp_file "backup_repro" ".store" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let eng, fs = make_engine () in
      ignore (Fs.create fs "/data/persisted.txt" ~perms:0o640);
      Fs.write fs "/data/persisted.txt" ~offset:0 "across processes";
      ignore (backup eng ~strategy:Strategy.Physical ~label:"vol" ());
      Repro_backup.Store.save ~path eng;
      (* reload into a fresh engine: file system, catalog and tapes all
         come back *)
      let eng2 = Repro_backup.Store.load ~path in
      let fs2 = Engine.fs eng2 in
      checks "file content back" "across processes"
        (Fs.read fs2 "/data/persisted.txt" ~offset:0 ~len:16);
      checki "catalog preserved" 1 (List.length (Catalog.entries (Engine.catalog eng2)));
      (match Engine.verify_physical eng2 ~label:"vol" with
      | Ok blocks -> checkb "tapes readable after reload" true (blocks > 0)
      | Error p -> Alcotest.failf "verify: %s" (String.concat ";" p));
      (* and the reloaded engine can still restore *)
      let nvol = Volume.create ~label:"n" (Volume.small_geometry ~data_blocks:16384) in
      ignore (Engine.restore_physical eng2 ~label:"vol" ~volume:nvol ());
      let nfs = Fs.mount nvol in
      match Compare.trees ~src:(fs2, "/data") ~dst:(nfs, "/data") () with
      | Ok () -> ()
      | Error d -> Alcotest.failf "mismatch: %s" (String.concat ";" d))

(* ----------------------------- instrument ---------------------------- *)

let test_instrument_collect () =
  let r1 = Resource.create "r1" in
  let r2 = Resource.create "r2" in
  let (), stages =
    Instrument.collect ~resources:[ r1; r2 ] (fun observe ->
        observe "phase a" (fun () -> Resource.charge r1 ~bytes:100 1.0);
        observe "phase b" (fun () ->
            Resource.charge r1 0.5;
            Resource.charge r2 2.0))
  in
  checki "two stages" 2 (List.length stages);
  let a = List.nth stages 0 and b = List.nth stages 1 in
  checks "label a" "phase a" a.Instrument.label;
  checki "a has one demand" 1 (List.length a.Instrument.demands);
  checki "b has two demands" 2 (List.length b.Instrument.demands);
  let d = List.hd a.Instrument.demands in
  Alcotest.(check (float 1e-9)) "delta work" 1.0 d.Instrument.work;
  checki "delta bytes" 100 d.Instrument.bytes

let test_instrument_scale_retarget () =
  let tape = Resource.create "tape:0" in
  let stages = [ Instrument.stage "w" [ Instrument.demand ~bytes:1000 tape 2.0 ] ] in
  let halved = Instrument.scale_stages stages 0.5 in
  let d = List.hd (List.hd halved).Instrument.demands in
  Alcotest.(check (float 1e-9)) "halved work" 1.0 d.Instrument.work;
  checki "halved bytes" 500 d.Instrument.bytes;
  let other = Resource.create "tape:1" in
  let moved = Instrument.retarget halved ~from_prefix:"tape:" ~to_resource:other in
  let d2 = List.hd (List.hd moved).Instrument.demands in
  checks "retargeted" "tape:1" (Resource.name d2.Instrument.resource)

(* ------------------------------- job --------------------------------- *)

(* Job.make rejects malformed descriptions with typed errors before
   anything touches an engine. *)
let test_job_make_validation () =
  let expects err f =
    match f () with
    | (_ : Engine.Job.t) -> Alcotest.fail "Job.make accepted a bad job"
    | exception Engine.Job.Invalid e ->
      Alcotest.(check string)
        "typed error"
        (Engine.Job.error_message err)
        (Engine.Job.error_message e)
  in
  let make = Engine.Job.make ~strategy:Strategy.Logical in
  expects Engine.Job.Empty_subtree (fun () -> make ~subtree:"" ());
  expects (Engine.Job.Relative_subtree "data") (fun () ->
      make ~subtree:"data" ());
  expects (Engine.Job.Bad_level 10) (fun () -> make ~level:10 ());
  expects (Engine.Job.Bad_level (-1)) (fun () -> make ~level:(-1) ());
  expects (Engine.Job.Bad_parts 0) (fun () -> make ~parts:0 ());
  expects Engine.Job.Empty_pool (fun () -> make ~drives:[] ());
  expects (Engine.Job.Duplicate_drive 1) (fun () -> make ~drives:[ 0; 1; 1 ] ());
  let ok = make ~subtree:"/data" ~level:3 ~parts:2 ~drives:[ 0; 1 ] () in
  Alcotest.(check string) "label defaults to subtree" "/data"
    (Engine.Job.label ok)

(* ----------------------------- experiment ---------------------------- *)

(* A smoke run of the full harness: run_basic verifies both restores
   internally, so completing at all is a strong check. Assert the paper's
   qualitative findings on top. *)
let test_experiment_smoke () =
  let cfg = Experiment.quick_config () in
  let b = Experiment.run_basic ~tapes:1 cfg in
  checkb "files generated" true (b.Experiment.files > 50);
  let lb = Experiment.mb_s b.Experiment.logical_backup in
  let pb = Experiment.mb_s b.Experiment.physical_backup in
  let lr = Experiment.mb_s b.Experiment.logical_restore in
  let pr = Experiment.mb_s b.Experiment.physical_restore in
  checkb "physical backup at least as fast" true (pb >= lb *. 0.98);
  checkb "physical restore faster" true (pr > lr);
  (* CPU: logical dump costs several times physical dump *)
  let cpu_of op label =
    match
      List.find_opt
        (fun (s : Instrument.stage_summary) -> s.Instrument.stage_label = label)
        op.Experiment.report.Instrument.stages
    with
    | Some s -> Experiment.stage_cpu s
    | None -> 0.0
  in
  let ld_cpu = cpu_of b.Experiment.logical_backup "dumping files" in
  let pd_cpu = cpu_of b.Experiment.physical_backup "dumping blocks" in
  checkb
    (Printf.sprintf "logical dump CPU %.2f >> physical %.2f" ld_cpu pd_cpu)
    true
    (ld_cpu > 3.0 *. pd_cpu)

let test_experiment_scaling_shape () =
  let cfg = Experiment.quick_config () in
  let one = Experiment.run_basic ~tapes:1 cfg in
  let four = Experiment.run_basic ~tapes:4 cfg in
  let per_tape op tapes = Experiment.gb_h op /. Float.of_int tapes in
  (* physical scales nearly linearly: per-tape throughput roughly flat *)
  let p1 = per_tape one.Experiment.physical_backup 1 in
  let p4 = per_tape four.Experiment.physical_backup 4 in
  checkb
    (Printf.sprintf "physical per-tape flat (%.1f vs %.1f)" p1 p4)
    true
    (p4 > 0.85 *. p1);
  (* logical saturates: per-tape throughput drops measurably *)
  let l1 = per_tape one.Experiment.logical_backup 1 in
  let l4 = per_tape four.Experiment.logical_backup 4 in
  checkb
    (Printf.sprintf "logical per-tape degrades (%.1f vs %.1f)" l1 l4)
    true
    (l4 < 0.92 *. l1);
  (* and physical wins big at 4 tapes *)
  checkb "physical wins at scale" true
    (Experiment.gb_h four.Experiment.physical_backup
    > 1.3 *. Experiment.gb_h four.Experiment.logical_backup)

let test_experiment_concurrent () =
  let cfg = Experiment.quick_config () in
  let c = Experiment.run_concurrent cfg in
  let solo = Experiment.elapsed c.Experiment.home_solo in
  checkb "no meaningful interference" true
    (c.Experiment.home_combined_elapsed < solo *. 1.15)

let () =
  Alcotest.run "core"
    [
      ( "catalog",
        [
          Alcotest.test_case "ids and persistence" `Quick test_catalog_ids_and_persistence;
          Alcotest.test_case "logical chain rules" `Quick test_catalog_logical_chain;
          Alcotest.test_case "physical chain rules" `Quick test_catalog_physical_chain;
          Alcotest.test_case "RENG2 fixture still decodes" `Quick
            test_catalog_reng2_fixture;
        ] );
      ( "engine",
        [
          Alcotest.test_case "logical backup cycle" `Quick test_engine_logical_cycle;
          Alcotest.test_case "physical backup cycle" `Quick test_engine_physical_cycle;
          Alcotest.test_case "plain multi-part cycle" `Quick test_engine_multipart_plain;
          Alcotest.test_case "concurrent drive pool" `Quick test_engine_concurrent_drives;
          Alcotest.test_case "selective restore" `Quick test_engine_selective_restore;
          Alcotest.test_case "job validation" `Quick test_job_make_validation;
          Alcotest.test_case "unknown drive rejected first" `Quick
            test_engine_unknown_drive;
          Alcotest.test_case "incremental needs full" `Quick
            test_engine_incremental_without_full;
          Alcotest.test_case "store persistence round trip" `Quick test_store_roundtrip;
        ] );
      ( "instrument",
        [
          Alcotest.test_case "collect stages" `Quick test_instrument_collect;
          Alcotest.test_case "scale and retarget" `Quick test_instrument_scale_retarget;
        ] );
      ( "experiment",
        [
          Alcotest.test_case "basic run (self-verifying)" `Slow test_experiment_smoke;
          Alcotest.test_case "scaling shape" `Slow test_experiment_scaling_shape;
          Alcotest.test_case "concurrent volumes" `Slow test_experiment_concurrent;
        ] );
    ]

(* Tests for the fault-injection plane and the resilient backup engine:
   latent sector errors and their RAID repair, transient retries with
   backoff, tape soft/hard errors, drive death with checkpointed resume,
   degraded logical dumps vs fail-fast image dumps, NVRAM loss, torn
   fsinfo writes — plus the qcheck properties from the issue (a single
   injected fault never mutates the source; identical plan seeds
   reproduce identical journals). *)

module Fault = Repro_fault.Fault
module Retry = Repro_fault.Retry
module Volume = Repro_block.Volume
module Raid = Repro_block.Raid
module Disk = Repro_block.Disk
module Block = Repro_block.Block
module Tape = Repro_tape.Tape
module Library = Repro_tape.Library
module Tapeio = Repro_tape.Tapeio
module Fs = Repro_wafl.Fs
module Inode = Repro_wafl.Inode
module Nvram = Repro_wafl.Nvram
module Blockmap = Repro_wafl.Blockmap
module Restore = Repro_dump.Restore
module Strategy = Repro_backup.Strategy
module Catalog = Repro_backup.Catalog
module Engine = Repro_backup.Engine

(* Build a validated job description and run it. *)
let backup eng ~strategy ?level ?subtree ?exclude ?label ?parts ?drives ?resume
    () =
  Engine.backup_job eng
    (Engine.Job.make ~strategy ?level ?subtree ?exclude ?label ?parts ?drives
       ?resume ())
module Report = Repro_backup.Report
module Clock = Repro_sim.Clock
module Generator = Repro_workload.Generator
module Compare = Repro_workload.Compare
module Serde = Repro_util.Serde

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-9))

let journal_has plane kind =
  List.exists (fun (e : Fault.event) -> e.Fault.kind = kind) (Fault.events plane)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let assert_trees src dst =
  match Compare.trees ~src ~dst () with
  | Ok () -> ()
  | Error diffs -> Alcotest.failf "trees differ: %s" (String.concat "; " diffs)

(* Engine fixture mirroring test_core's, but exposing the libraries. *)
let make_engine ?clock ?(blocks = 16384) ?(bytes = 900_000) ?(seed = 1) () =
  let vol = Volume.create ~label:"src" (Volume.small_geometry ~data_blocks:blocks) in
  let fs = Fs.mkfs vol in
  let profile = { Generator.default with seed } in
  ignore (Generator.populate ~profile ~fs ~root:"/data" ~total_bytes:bytes ());
  let libs =
    List.init 2 (fun i -> Library.create ~slots:16 ~label:(Printf.sprintf "L%d" i) ())
  in
  (Engine.create ?clock ~fs ~libraries:libs (), fs, libs)

let record_bytes = 64 * 1024

(* Records a finished stream occupies on tape (Tapeio chunks payloads into
   64 KiB records). Reading repositions the library: probe engines only. *)
let stream_records lib ~stream =
  let src = Tapeio.source ~skip_streams:stream lib in
  let len = String.length (Tapeio.input_all src) in
  (len + record_bytes - 1) / record_bytes

(* First data block of every regular file under [ino], depth first. *)
let rec files_under view ino acc =
  List.fold_left
    (fun acc (_, ino') ->
      match (Fs.View.getattr view ino').Inode.kind with
      | Inode.Directory -> files_under view ino' acc
      | Inode.Regular -> ino' :: acc
      | _ -> acc)
    acc (Fs.View.readdir view ino)

let file_vbns view =
  files_under view (Fs.View.root_ino view) []
  |> List.filter_map (fun ino -> Fs.View.block_address view ino 0)

(* ------------------------- plane primitives ------------------------- *)

let test_lse_inject_and_clear () =
  let d = Disk.create ~label:"d0" (Disk.default_params ~blocks:16) in
  let b = String.make Block.size 'a' in
  Disk.write d 5 b;
  let plane = Fault.plan [ Fault.Latent_sector_error { device = "d0"; addr = 5 } ] in
  Fault.with_armed plane (fun () ->
      (match Disk.read d 5 with
      | _ -> Alcotest.fail "expected Media_error"
      | exception Fault.Media_error { device = "d0"; addr = 5 } -> ());
      (* sticky until the sector is rewritten *)
      (match Disk.read d 5 with
      | _ -> Alcotest.fail "latent error must be sticky"
      | exception Fault.Media_error _ -> ());
      (* other addresses unaffected *)
      Disk.write d 6 b;
      ignore (Disk.read d 6);
      Disk.write d 5 b;
      checkb "clean after rewrite" true (Disk.read d 5 = b));
  checkb "injections journalled" true (Fault.injected plane >= 1);
  checkb "journal lse" true (journal_has plane "lse");
  checkb "journal lse-cleared" true (journal_has plane "lse-cleared")

let test_retry_backoff_and_exhaustion () =
  checkf "first backoff" 1.0 (Retry.backoff ~attempt:1);
  checkf "second backoff" 2.0 (Retry.backoff ~attempt:2);
  checkf "third backoff" 4.0 (Retry.backoff ~attempt:3);
  let plane = Fault.plan [] in
  Fault.with_armed plane (fun () ->
      let charged = ref 0.0 and cleanups = ref 0 and calls = ref 0 in
      let v =
        Retry.run
          ~charge:(fun s -> charged := !charged +. s)
          ~cleanup:(fun _ -> incr cleanups)
          ~label:"unit"
          (fun () ->
            incr calls;
            if !calls <= 2 then
              raise (Fault.Transient { device = "dev"; what = "timeout" });
            !calls * 10)
      in
      checki "third attempt's value" 30 v;
      checki "three calls" 3 !calls;
      checki "cleanup before each retry" 2 !cleanups;
      checkf "1s + 2s charged" 3.0 !charged);
  checki "retries journalled" 2 (Fault.retries plane);
  (* budget exhausted: the last Transient propagates *)
  let calls = ref 0 in
  (match
     Retry.run ~label:"doomed" (fun () ->
         incr calls;
         raise (Fault.Transient { device = "dev"; what = "t" }))
   with
  | (_ : unit) -> Alcotest.fail "expected Transient"
  | exception Fault.Transient _ -> ());
  checki "the budget is 4 attempts" 4 !calls;
  (* anything non-transient propagates without retrying *)
  let calls = ref 0 in
  (match
     Retry.run ~label:"hard" (fun () ->
         incr calls;
         failwith "boom")
   with
  | (_ : unit) -> Alcotest.fail "expected Failure"
  | exception Failure _ -> ());
  checki "no retry of hard failures" 1 !calls

(* ----------------------------- RAID ---------------------------------- *)

let raid_with_data () =
  let r =
    Raid.create ~label:"rg" ~ndisks:4 ~blocks_per_disk:16
      (Disk.default_params ~blocks:16)
  in
  for gbn = 0 to Raid.data_blocks r - 1 do
    Raid.write r gbn (String.make Block.size (Char.chr (Char.code 'a' + (gbn mod 26))))
  done;
  r

let test_raid_media_repair () =
  let r = raid_with_data () in
  let stripe, di = Raid.stripe_of_gbn r 4 in
  checki "gbn 4 stripe" 1 stripe;
  checki "gbn 4 disk" 1 di;
  let plane = Fault.plan [ Fault.Latent_sector_error { device = "rg.d1"; addr = 1 } ] in
  Fault.with_armed plane (fun () ->
      let b = Raid.read r 4 in
      checkb "data reconstructed" true (b.[0] = 'e');
      checki "one media repair" 1 (Raid.media_repairs r);
      checki "repair noted on the plane" 1 (Fault.repairs plane);
      checkb "journal repair" true (journal_has plane "repair");
      (* the rewrite remapped the bad sector: second read is clean *)
      checkb "repaired data persists" true ((Raid.read r 4).[0] = 'e');
      checki "no second repair" 1 (Raid.media_repairs r);
      checkb "parity consistent after repair" true (Raid.parity_consistent r))

let test_raid_double_fault_escapes () =
  (* two latent errors in one stripe: reconstruction needs the other bad
     block, so the media error must escape to the caller *)
  let r = raid_with_data () in
  let plane =
    Fault.plan
      [
        Fault.Latent_sector_error { device = "rg.d1"; addr = 1 };
        Fault.Latent_sector_error { device = "rg.d2"; addr = 1 };
      ]
  in
  Fault.with_armed plane (fun () ->
      match Raid.read r 4 with
      | _ -> Alcotest.fail "expected Media_error on double fault"
      | exception Fault.Media_error _ -> ());
  (* a media error with another disk already missing is equally fatal *)
  let r2 = raid_with_data () in
  Raid.fail_disk r2 0;
  let plane2 = Fault.plan [ Fault.Latent_sector_error { device = "rg.d1"; addr = 1 } ] in
  Fault.with_armed plane2 (fun () ->
      match Raid.read r2 4 with
      | _ -> Alcotest.fail "expected Media_error in degraded mode"
      | exception Fault.Media_error _ -> ())

(* ----------------------------- tape ---------------------------------- *)

let test_tape_soft_errors () =
  let t = Tape.create ~label:"T" () in
  Tape.load t (Tape.blank_media ~label:"T.t00");
  let plane =
    Fault.plan [ Fault.Tape_soft_errors { device = "T"; op = `Write; failures = 1 } ]
  in
  Fault.with_armed plane (fun () ->
      (match Tape.write_record t "hello" with
      | () -> Alcotest.fail "expected Transient"
      | exception Fault.Transient _ -> ());
      (* nothing reached the media; the reissued write is record 0 *)
      Tape.write_record t "hello";
      Tape.write_record t "world";
      Tape.write_filemark t);
  checki "two records on media" 2 (Tape.media_records (Option.get (Tape.loaded t)));
  checkb "journal tape-soft" true (journal_has plane "tape-soft")

let test_tape_soft_read_drive_retries () =
  (* the drive absorbs soft read errors internally (Tapeio), charging its
     own busy time, without the stream noticing *)
  let lib = Library.create ~slots:4 ~label:"T" () in
  let sink = Tapeio.sink lib in
  let payload = String.init 200_000 (fun i -> Char.chr (32 + (i mod 90))) in
  Tapeio.output sink payload;
  Tapeio.close_sink sink;
  let busy0 = Tape.busy_seconds (Library.drive lib) in
  let plane =
    Fault.plan [ Fault.Tape_soft_errors { device = "T"; op = `Read; failures = 2 } ]
  in
  Fault.with_armed plane (fun () ->
      let got = Tapeio.input_all (Tapeio.source lib) in
      checkb "payload intact despite soft errors" true (got = payload));
  checki "drive-internal retries journalled" 2 (Fault.retries plane);
  checkb "retry delay charged to the drive" true
    (Tape.busy_seconds (Library.drive lib) -. busy0 >= 1.0)

let test_tape_hard_error_asymmetry () =
  let eng, fs, libs = make_engine () in
  let lib0 = List.nth libs 0 in
  ignore (backup eng ~strategy:Strategy.Logical ~subtree:"/data" ());
  let logical_records = Tape.media_records (Option.get (Tape.loaded (Library.drive lib0))) in
  (* lose a record in the middle of the file section *)
  let plane =
    Fault.plan [ Fault.Tape_hard_error { device = "L0"; record = logical_records / 2 } ]
  in
  let dvol = Volume.create ~label:"dh" (Volume.small_geometry ~data_blocks:16384) in
  let dfs = Fs.mkfs dvol in
  Fault.with_armed plane (fun () ->
      (* logical restore resynchronizes past the hole and completes *)
      let rs = Engine.restore_logical eng ~label:"/data" ~fs:dfs ~target:"/r" () in
      checki "restore completed" 1 (List.length rs));
  checkb "unreadable record skipped" true (Fault.skips plane >= 1);
  checkb "journal tape-hard" true (journal_has plane "tape-hard");
  (match Compare.trees ~src:(fs, "/data") ~dst:(dfs, "/r") () with
  | Ok () -> Alcotest.fail "the damaged region must cost something"
  | Error diffs ->
    (* one lost 64 KiB record costs the files it spanned, nothing more *)
    let damaged =
      List.sort_uniq compare
        (List.map (fun d -> List.hd (String.split_on_char ':' d)) diffs)
    in
    checkb "damage bounded to a few files" true (List.length damaged <= 8));
  (* the same fault against an image stream fails verification: physical
     backup has no per-file containment to fall back on (paper §4.4) *)
  ignore (backup eng ~strategy:Strategy.Physical ~label:"vol" ());
  let total_records =
    Tape.media_records (Option.get (Tape.loaded (Library.drive lib0)))
  in
  (* stream 1's records sit between the two filemarks *)
  let target = logical_records + 1 + ((total_records - logical_records) / 2) in
  let plane2 = Fault.plan [ Fault.Tape_hard_error { device = "L0"; record = target } ] in
  Fault.with_armed plane2 (fun () ->
      match Engine.verify_physical eng ~label:"vol" with
      | Ok _ -> Alcotest.fail "image verify must detect the lost record"
      | Error problems -> checkb "problems reported" true (problems <> []))

(* ----------------------- engine resilience --------------------------- *)

let test_engine_retry_charges_clock () =
  let clock = Clock.create () in
  let eng, fs, _ = make_engine ~clock () in
  let plane =
    Fault.plan [ Fault.Tape_soft_errors { device = "L0"; op = `Write; failures = 2 } ]
  in
  Fault.with_armed plane (fun () ->
      let e = backup eng ~strategy:Strategy.Logical ~subtree:"/data" () in
      checki "no degradation" 0 e.Catalog.degraded);
  checki "two engine-level retries" 2 (Fault.retries plane);
  checkf "1s + 2s backoff on the simulated clock" 3.0 (Clock.now clock);
  match Engine.verify_logical eng ~label:"/data" ~fs ~target:"/data" with
  | Ok () -> ()
  | Error d -> Alcotest.failf "verify after retries: %s" (String.concat "; " d)

let test_degraded_logical_vs_failfast_image () =
  let vol = Volume.create ~label:"dv" (Volume.small_geometry ~data_blocks:8192) in
  let fs0 = Fs.mkfs vol in
  let profile = { Generator.default with seed = 3 } in
  ignore (Generator.populate ~profile ~fs:fs0 ~root:"/data" ~total_bytes:400_000 ());
  ignore (Fs.create fs0 "/data/victim.bin" ~perms:0o644);
  Fs.write fs0 "/data/victim.bin" ~offset:0
    (String.init 65_536 (fun i -> Char.chr (65 + (i mod 26))));
  Fs.cp fs0;
  (* remount so the victim's blocks are not sitting in the buffer cache:
     the dump must really read the disk *)
  Fs.crash fs0;
  let fs = Fs.mount vol in
  let view = Fs.active_view fs in
  let ino = Option.get (Fs.View.lookup view "/data/victim.bin") in
  let vbns =
    List.filter_map (fun lbn -> Fs.View.block_address view ino lbn)
      (List.init 16 Fun.id)
  in
  (* pick a stripe entirely owned by the victim, so no CP during the
     backup ever writes (and so reads parity) in it *)
  let stripe =
    let owned s = List.for_all (fun k -> List.mem ((s * 7) + k) vbns) [ 0; 1; 2; 3; 4; 5; 6 ] in
    match List.find_opt (fun v -> owned (v / 7)) vbns with
    | Some v -> v / 7
    | None -> Alcotest.fail "victim spans no whole stripe"
  in
  let eng = Engine.create ~fs ~libraries:[ Library.create ~slots:16 ~label:"L0" () ] () in
  (* double fault in one stripe: a data block and its parity. RAID cannot
     reconstruct, so the read's media error reaches the dump. *)
  let plane =
    Fault.plan
      [
        Fault.Latent_sector_error { device = "dv.rg0.d0"; addr = stripe };
        Fault.Latent_sector_error { device = "dv.rg0.d7"; addr = stripe };
      ]
  in
  Fault.with_armed plane (fun () ->
      let e = backup eng ~strategy:Strategy.Logical ~subtree:"/data" () in
      checki "one file degraded" 1 e.Catalog.degraded;
      checkb "skip journalled" true (Fault.skips plane >= 1);
      checkb "journal skip" true (journal_has plane "skip");
      (* the image dump reads the same block and fails fast instead *)
      match backup eng ~strategy:Strategy.Physical ~label:"vol" () with
      | _ -> Alcotest.fail "image dump must fail fast on an unreadable block"
      | exception Fault.Media_error _ -> ());
  (* restore: the skipped file comes back empty, everything else intact *)
  let dvol = Volume.create ~label:"dd" (Volume.small_geometry ~data_blocks:8192) in
  let dfs = Fs.mkfs dvol in
  ignore (Engine.restore_logical eng ~label:"/data" ~fs:dfs ~target:"/r" ());
  checki "victim restored empty" 0 (Fs.getattr dfs "/r/victim.bin").Inode.size;
  match Compare.trees ~src:(fs, "/data") ~dst:(dfs, "/r") () with
  | Ok () -> Alcotest.fail "the victim should differ"
  | Error diffs ->
    checkb "only the victim differs" true
      (List.for_all (fun d -> contains d "victim.bin") diffs)

let test_multipart_streams_and_restore () =
  let eng, fs, _ = make_engine () in
  let e = backup eng ~strategy:Strategy.Logical ~subtree:"/data" ~parts:3 () in
  Alcotest.(check (list int)) "three consecutive streams" [ 0; 1; 2 ] e.Catalog.streams;
  (* parts carry all directories, but the merged toc reports each once *)
  let toc = Engine.table_of_contents eng e in
  let inos = List.map (fun (t : Restore.toc_entry) -> t.Restore.ino) toc in
  checki "toc entries unique" (List.length inos)
    (List.length (List.sort_uniq compare inos));
  (match Engine.verify_logical eng ~label:"/data" ~fs ~target:"/data" with
  | Ok () -> ()
  | Error d -> Alcotest.failf "multi-part verify: %s" (String.concat "; " d));
  let dvol = Volume.create ~label:"dm" (Volume.small_geometry ~data_blocks:16384) in
  let dfs = Fs.mkfs dvol in
  ignore (Engine.restore_logical eng ~label:"/data" ~fs:dfs ~target:"/r" ());
  assert_trees (fs, "/data") (dfs, "/r");
  (* physical: contiguous block ranges, same guarantees *)
  let pe = backup eng ~strategy:Strategy.Physical ~label:"vol" ~parts:2 () in
  checki "two physical streams" 2 (List.length pe.Catalog.streams);
  (match Engine.verify_physical eng ~label:"vol" with
  | Ok _ -> ()
  | Error d -> Alcotest.failf "physical verify: %s" (String.concat "; " d));
  let pvol = Volume.create ~label:"dp" (Volume.small_geometry ~data_blocks:16384) in
  ignore (Engine.restore_physical eng ~label:"vol" ~volume:pvol ());
  let pfs = Fs.mount pvol in
  assert_trees (fs, "/data") (pfs, "/data")

(* The issue's acceptance scenario: a plan kills a tape drive mid way
   through a three-part level-0 logical dump and plants two latent sector
   errors; the engine retries the transient, checkpoints, resumes after
   the drive is revived, repairs both blocks from parity during the
   physical pass, and both restores byte-verify. *)
let test_acceptance_drill () =
  (* probe run (identical construction, no faults) to learn how many
     record operations part 0 takes *)
  let peng, _, plibs = make_engine () in
  ignore (backup peng ~strategy:Strategy.Logical ~subtree:"/data" ~parts:3 ());
  let r0 = stream_records (List.nth plibs 0) ~stream:0 in

  let clock = Clock.create () in
  let eng, fs, _ = make_engine ~clock () in
  let view = Fs.active_view fs in
  let v1, v2 =
    let vbns = List.filter (fun v -> v >= 7) (file_vbns view) in
    match vbns with
    | v :: rest -> (
        match List.find_opt (fun w -> w / 7 <> v / 7) rest with
        | Some w -> (v, w)
        | None -> Alcotest.fail "need file blocks in two stripes")
    | [] -> Alcotest.fail "no file blocks"
  in
  let disk_of v = Printf.sprintf "src.rg0.d%d" (v mod 7) in
  (* the soft write error costs one extra record operation (attempt 1 of
     part 0), then part 0 completes with r0 records + 1 filemark; the
     drive dies on the third record of part 1 *)
  let plane =
    Fault.plan ~seed:42
      [
        Fault.Tape_soft_errors { device = "L0"; op = `Write; failures = 1 };
        Fault.Tape_drive_death { device = "L0"; after_records = r0 + 4 };
        Fault.Latent_sector_error { device = disk_of v1; addr = v1 / 7 };
        Fault.Latent_sector_error { device = disk_of v2; addr = v2 / 7 };
      ]
  in
  Fault.with_armed plane (fun () ->
      (match backup eng ~strategy:Strategy.Logical ~subtree:"/data" ~parts:3 () with
      | _ -> Alcotest.fail "expected Drive_dead"
      | exception Fault.Drive_dead d -> Alcotest.(check string) "dead drive" "L0" d);
      checkb "transient was retried first" true (Fault.retries plane >= 1);
      checkb "drive is dead" true (Fault.dead plane ~device:"L0");
      checkb "journal tape-dead" true (journal_has plane "tape-dead");
      (match
         Catalog.find_checkpoint (Engine.catalog eng) ~strategy:Strategy.Logical
           ~label:"/data"
       with
      | None -> Alcotest.fail "no checkpoint after the crash"
      | Some ck ->
        checki "job is three parts" 3 ck.Catalog.ck_parts;
        checki "one part completed" 1 (List.length ck.Catalog.ck_done));
      (* operator swaps the drive; resume re-dumps only unfinished parts.
         The cut-off partial stream is sealed as stream 1 and skipped. *)
      Fault.revive plane ~device:"L0";
      checkb "journal revive" true (journal_has plane "revive");
      let e = backup eng ~strategy:Strategy.Logical ~subtree:"/data" ~resume:true () in
      Alcotest.(check (list int)) "part 0 kept; dead stream sealed" [ 0; 2; 3 ]
        e.Catalog.streams;
      checkb "checkpoint cleared" true
        (Catalog.find_checkpoint (Engine.catalog eng) ~strategy:Strategy.Logical
           ~label:"/data"
        = None);
      checkf "only the soft error's backoff was charged" 1.0 (Clock.now clock);
      (* logical restore byte-verifies *)
      let dvol = Volume.create ~label:"dl" (Volume.small_geometry ~data_blocks:16384) in
      let dfs = Fs.mkfs dvol in
      ignore (Engine.restore_logical eng ~label:"/data" ~fs:dfs ~target:"/r" ());
      assert_trees (fs, "/data") (dfs, "/r");
      (* the physical pass reads every allocated block, tripping both
         latent errors; RAID repairs them from parity in place *)
      let pe = backup eng ~strategy:Strategy.Physical ~label:"vol" () in
      checki "physical stream clean" 0 pe.Catalog.degraded;
      checki "both blocks repaired" 2 (Volume.media_repairs (Fs.volume fs));
      checkb "repairs on the plane" true (Fault.repairs plane >= 2);
      checkb "journal repair" true (journal_has plane "repair");
      checkb "parity consistent after repairs" true (Volume.parity_consistent (Fs.volume fs));
      (* disaster restore of the image byte-verifies too *)
      let pvol = Volume.create ~label:"dp" (Volume.small_geometry ~data_blocks:16384) in
      ignore (Engine.restore_physical eng ~label:"vol" ~volume:pvol ());
      let pfs = Fs.mount pvol in
      assert_trees (fs, "/data") (pfs, "/data");
      (* and the whole drill renders as a report *)
      let buf = Buffer.create 256 in
      let ppf = Format.formatter_of_buffer buf in
      Report.faults ppf ~plane ~engine:eng;
      Format.pp_print_flush ppf ();
      checkb "report mentions repairs" true (contains (Buffer.contents buf) "repairs"))

(* One drive of a two-drive pool dies mid-concurrent-backup: the other
   parts drain on the survivor, the checkpoint records exactly the dead
   drive's in-flight part as unfinished (with each done part's drive), and
   resume completes the job with a byte-verified restore. *)
let test_concurrent_drive_death_and_resume () =
  (* probe: how many records part 1 (the first stream on L1) occupies *)
  let peng, _, plibs = make_engine () in
  ignore
    (backup peng ~strategy:Strategy.Logical ~subtree:"/data" ~parts:4
       ~drives:[ 0; 1 ] ());
  let r1 = stream_records (List.nth plibs 1) ~stream:0 in
  checkb "part 1 spans several records" true (r1 >= 2);

  let eng, fs, _ = make_engine () in
  (* L1 dies on its second record operation: mid part 1's stream *)
  let plane = Fault.plan [ Fault.Tape_drive_death { device = "L1"; after_records = 1 } ] in
  Fault.with_armed plane (fun () ->
      (match
         backup eng ~strategy:Strategy.Logical ~subtree:"/data" ~parts:4
           ~drives:[ 0; 1 ] ()
       with
      | _ -> Alcotest.fail "expected Drive_dead"
      | exception Fault.Drive_dead d -> Alcotest.(check string) "dead drive" "L1" d);
      (match
         Catalog.find_checkpoint (Engine.catalog eng) ~strategy:Strategy.Logical
           ~label:"/data"
       with
      | None -> Alcotest.fail "no checkpoint after the drive death"
      | Some ck ->
        Alcotest.(check (list int)) "pool recorded" [ 0; 1 ] ck.Catalog.ck_drives;
        checki "the other three parts completed" 3 (List.length ck.Catalog.ck_done);
        let missing =
          List.filter
            (fun p ->
              not
                (List.exists
                   (fun (d : Catalog.part_done) -> d.Catalog.part = p)
                   ck.Catalog.ck_done))
            (List.init 4 Fun.id)
        in
        Alcotest.(check (list int))
          "exactly the dead drive's part unfinished" [ 1 ] missing;
        checkb "completed parts landed on the survivor" true
          (List.for_all (fun (d : Catalog.part_done) -> d.Catalog.drive = 0)
             ck.Catalog.ck_done));
      (* operator swaps the drive; resume re-dumps only part 1 (on the
         first free drive of the checkpointed pool) *)
      Fault.revive plane ~device:"L1";
      let e =
        backup eng ~strategy:Strategy.Logical ~subtree:"/data" ~resume:true ()
      in
      checki "entry covers all four parts" 4 (List.length e.Catalog.streams);
      Alcotest.(check (list int))
        "part 1 re-dumped as the survivor's fourth stream"
        [ 0; 3; 1; 2 ] e.Catalog.streams;
      Alcotest.(check (list int))
        "per-part drives recorded" [ 0; 0; 0; 0 ] e.Catalog.part_drives;
      checkb "checkpoint cleared" true
        (Catalog.find_checkpoint (Engine.catalog eng) ~strategy:Strategy.Logical
           ~label:"/data"
        = None);
      (* a concurrent restore reassembles the tree byte-identically *)
      let dvol = Volume.create ~label:"dc" (Volume.small_geometry ~data_blocks:16384) in
      let dfs = Fs.mkfs dvol in
      ignore
        (Engine.restore_logical eng ~label:"/data" ~fs:dfs ~target:"/r"
           ~concurrency:2 ());
      assert_trees (fs, "/data") (dfs, "/r"))

let test_checkpoint_survives_reload () =
  let peng, _, plibs = make_engine () in
  ignore (backup peng ~strategy:Strategy.Logical ~subtree:"/data" ~parts:2 ());
  let r0 = stream_records (List.nth plibs 0) ~stream:0 in
  let eng, fs, _ = make_engine () in
  let plane =
    Fault.plan [ Fault.Tape_drive_death { device = "L0"; after_records = r0 + 2 } ]
  in
  Fault.with_armed plane (fun () ->
      match backup eng ~strategy:Strategy.Logical ~subtree:"/data" ~parts:2 () with
      | _ -> Alcotest.fail "expected Drive_dead"
      | exception Fault.Drive_dead _ -> ());
  (* the interrupted job survives a process restart *)
  let w = Serde.writer () in
  Engine.save w eng;
  let eng2 = Engine.load (Serde.reader (Serde.contents w)) ~fs in
  (match
     Catalog.find_checkpoint (Engine.catalog eng2) ~strategy:Strategy.Logical
       ~label:"/data"
   with
  | None -> Alcotest.fail "checkpoint lost in serialization"
  | Some ck -> checki "one part done" 1 (List.length ck.Catalog.ck_done));
  let e = backup eng2 ~strategy:Strategy.Logical ~subtree:"/data" ~resume:true () in
  checki "both parts present" 2 (List.length e.Catalog.streams);
  let dvol = Volume.create ~label:"d2" (Volume.small_geometry ~data_blocks:16384) in
  let dfs = Fs.mkfs dvol in
  ignore (Engine.restore_logical eng2 ~label:"/data" ~fs:dfs ~target:"/r" ());
  assert_trees (fs, "/data") (dfs, "/r")

(* --------------------- NVRAM loss, torn fsinfo ----------------------- *)

let test_nvram_loss_is_fail_stop () =
  let nvram = Nvram.create () in
  let vol = Volume.create ~label:"nv" (Volume.small_geometry ~data_blocks:4096) in
  let fs = Fs.mkfs ~nvram vol in
  let plane = Fault.plan [ Fault.Nvram_loss { device = "nvram"; after_ops = 2 } ] in
  Fault.with_armed plane (fun () ->
      ignore (Fs.create fs "/a" ~perms:0o644);
      ignore (Fs.create fs "/b" ~perms:0o644);
      (match Fs.create fs "/c" ~perms:0o644 with
      | _ -> Alcotest.fail "expected fail-stop"
      | exception Fs.Error _ -> ());
      checkb "nvram entered failed state" true (Nvram.failed nvram);
      checkb "journal nvram-loss" true (journal_has plane "nvram-loss");
      (* still failed: the state is sticky until the part is replaced *)
      (match Fs.create fs "/d" ~perms:0o644 with
      | _ -> Alcotest.fail "failed state must be sticky"
      | exception Fs.Error _ -> ());
      Nvram.replace nvram;
      ignore (Fs.create fs "/e" ~perms:0o644);
      checkb "writable after replacement" true (Fs.lookup fs "/e" <> None))

let test_torn_fsinfo_falls_back () =
  let vol = Volume.create ~label:"tv" (Volume.small_geometry ~data_blocks:4096) in
  let fs = Fs.mkfs vol in
  ignore (Fs.create fs "/f" ~perms:0o644);
  Fs.write fs "/f" ~offset:0 "survives a torn fsinfo write";
  let plane = Fault.plan [ Fault.Torn_fsinfo_write { device = "tv" } ] in
  Fault.with_armed plane (fun () -> Fs.cp fs);
  checkb "journal torn-fsinfo" true (journal_has plane "torn-fsinfo");
  Fs.crash fs;
  (* the primary copy is garbage; mount falls back to the redundant one *)
  let fs2 = Fs.mount vol in
  Alcotest.(check string)
    "data from the CP is intact" "survives a torn fsinfo write"
    (Fs.read fs2 "/f" ~offset:0 ~len:28);
  match Fs.fsck fs2 with
  | Ok () -> ()
  | Error d -> Alcotest.failf "fsck after torn write: %s" (String.concat "; " d)

(* --------------------------- properties ------------------------------ *)

(* Any single injected fault — disk, RAID-level double fault, tape, drive
   death — may cost the backup, but must never mutate the source file
   system. *)
let prop_single_fault_leaves_source_intact =
  QCheck2.Test.make ~count:6 ~name:"any single fault leaves the source intact"
    QCheck2.Gen.(pair (int_range 0 5) (int_range 0 1000))
    (fun (kind, pseed) ->
      let build () =
        let vol = Volume.create ~label:"p" (Volume.small_geometry ~data_blocks:8192) in
        let fs = Fs.mkfs vol in
        let profile = { Generator.default with seed = 7 } in
        ignore (Generator.populate ~profile ~fs ~root:"/data" ~total_bytes:250_000 ());
        fs
      in
      let reference = build () in
      let fs = build () in
      let eng = Engine.create ~fs ~libraries:[ Library.create ~slots:16 ~label:"L0" () ] () in
      let vbn = match file_vbns (Fs.active_view fs) with v :: _ -> v | [] -> 7 in
      let disk i = Printf.sprintf "p.rg0.d%d" i in
      let specs =
        match kind with
        | 0 -> [ Fault.Latent_sector_error { device = disk (vbn mod 7); addr = vbn / 7 } ]
        | 1 ->
          [
            Fault.Latent_sector_error { device = disk (vbn mod 7); addr = vbn / 7 };
            Fault.Latent_sector_error { device = disk 7; addr = vbn / 7 };
          ]
        | 2 -> [ Fault.Flaky_reads { device = disk 0; failures = 2; prob = 1.0 } ]
        | 3 -> [ Fault.Tape_soft_errors { device = "L0"; op = `Write; failures = 2 } ]
        | 4 -> [ Fault.Tape_hard_error { device = "L0"; record = 3 } ]
        | _ -> [ Fault.Tape_drive_death { device = "L0"; after_records = 2 } ]
      in
      let plane = Fault.plan ~seed:pseed specs in
      Fault.with_armed plane (fun () ->
          try ignore (backup eng ~strategy:Strategy.Logical ~subtree:"/data" ())
          with
          | Fault.Media_error _ | Fault.Transient _ | Fault.Drive_dead _
          | Disk.Disk_failed _ | Fs.Error _ ->
            ());
      Compare.trees ~src:(fs, "/data") ~dst:(reference, "/data") () = Ok ())

(* A spec that can never fire is a planning mistake, rejected up front
   rather than silently armed. *)
let test_plan_rejects_never_firing () =
  let refused spec =
    match Fault.plan [ spec ] with
    | _ -> Alcotest.fail "never-firing spec accepted"
    | exception Fault.Invalid_spec _ -> ()
  in
  let d = "x" in
  List.iter refused
    [
      Fault.Latent_sector_error { device = d; addr = -1 };
      Fault.Flaky_reads { device = d; failures = 3; prob = Float.nan };
      Fault.Flaky_reads { device = d; failures = 3; prob = 0.0 };
      Fault.Flaky_reads { device = d; failures = 3; prob = 1.5 };
      Fault.Flaky_reads { device = d; failures = 0; prob = 0.5 };
      Fault.Flaky_reads { device = d; failures = -2; prob = 0.5 };
      Fault.Disk_death { device = d; after_ios = -1 };
      Fault.Tape_soft_errors { device = d; op = `Read; failures = 0 };
      Fault.Tape_soft_errors { device = d; op = `Write; failures = -1 };
      Fault.Tape_hard_error { device = d; record = -1 };
      Fault.Tape_drive_death { device = d; after_records = -1 };
      Fault.Nvram_loss { device = d; after_ops = -1 };
      Fault.Packet_loss { device = d; losses = 3; prob = Float.nan };
      Fault.Packet_loss { device = d; losses = 3; prob = -0.5 };
      Fault.Packet_loss { device = d; losses = 0; prob = 0.5 };
      Fault.Link_flap { device = d; after_frames = 4; down_frames = 0 };
      Fault.Link_partition { device = d; after_frames = -1 };
    ];
  (* one bad spec refuses the whole plan *)
  (match
     Fault.plan
       [
         Fault.Torn_fsinfo_write { device = d };
         Fault.Nvram_loss { device = d; after_ops = -1 };
       ]
   with
  | _ -> Alcotest.fail "plan with one never-firing spec accepted"
  | exception Fault.Invalid_spec _ -> ());
  (* the boundary cases that do fire are still accepted *)
  ignore
    (Fault.plan
       [
         Fault.Latent_sector_error { device = d; addr = 0 };
         Fault.Flaky_reads { device = d; failures = 1; prob = 1.0 };
         Fault.Disk_death { device = d; after_ios = 0 };
         Fault.Tape_soft_errors { device = d; op = `Read; failures = 1 };
         Fault.Tape_hard_error { device = d; record = 0 };
         Fault.Tape_drive_death { device = d; after_records = 0 };
         Fault.Nvram_loss { device = d; after_ops = 0 };
         Fault.Torn_fsinfo_write { device = d };
         Fault.Packet_loss { device = d; losses = 1; prob = Float.min_float };
         Fault.Link_partition { device = d; after_frames = 0 };
         Fault.Link_flap { device = d; after_frames = -1; down_frames = 1 };
       ])

(* Identical fault-plan seeds against identical systems reproduce the
   journal and the retry counts exactly. *)
let prop_identical_seeds_reproduce =
  QCheck2.Test.make ~count:5 ~name:"identical plan seeds reproduce identical journals"
    QCheck2.Gen.(int_range 0 10_000)
    (fun pseed ->
      let run () =
        let vol = Volume.create ~label:"p" (Volume.small_geometry ~data_blocks:8192) in
        let fs = Fs.mkfs vol in
        let profile = { Generator.default with seed = 11 } in
        ignore (Generator.populate ~profile ~fs ~root:"/data" ~total_bytes:200_000 ());
        let eng =
          Engine.create ~fs ~libraries:[ Library.create ~slots:16 ~label:"L0" () ] ()
        in
        let plane =
          Fault.plan ~seed:pseed
            [
              Fault.Flaky_reads { device = "p.rg0.d0"; failures = 3; prob = 0.4 };
              Fault.Tape_soft_errors { device = "L0"; op = `Write; failures = 1 };
            ]
        in
        Fault.with_armed plane (fun () ->
            try ignore (backup eng ~strategy:Strategy.Logical ~subtree:"/data" ())
            with
            | Fault.Media_error _ | Fault.Transient _ | Fault.Drive_dead _
            | Disk.Disk_failed _ | Fs.Error _ ->
              ());
        (Fault.journal_lines plane, Fault.retries plane)
      in
      run () = run ())

let () =
  Alcotest.run "fault"
    [
      ( "plane",
        [
          ("latent error injects and clears", `Quick, test_lse_inject_and_clear);
          ("retry backoff and exhaustion", `Quick, test_retry_backoff_and_exhaustion);
          ("plan rejects never-firing specs", `Quick, test_plan_rejects_never_firing);
        ] );
      ( "raid",
        [
          ("media error repaired from parity", `Quick, test_raid_media_repair);
          ("double fault escapes", `Quick, test_raid_double_fault_escapes);
        ] );
      ( "tape",
        [
          ("soft write error leaves media clean", `Quick, test_tape_soft_errors);
          ("drive retries soft reads internally", `Quick, test_tape_soft_read_drive_retries);
          ("hard error: logical survives, image fails", `Quick, test_tape_hard_error_asymmetry);
        ] );
      ( "engine",
        [
          ("transient retry charges the clock", `Quick, test_engine_retry_charges_clock);
          ("degraded logical vs fail-fast image", `Quick, test_degraded_logical_vs_failfast_image);
          ("multi-part backup and restore", `Quick, test_multipart_streams_and_restore);
          ("acceptance drill: death, resume, repair", `Quick, test_acceptance_drill);
          ( "concurrent pool: drive death and resume",
            `Quick,
            test_concurrent_drive_death_and_resume );
          ("checkpoint survives reload", `Quick, test_checkpoint_survives_reload);
        ] );
      ( "state",
        [
          ("nvram loss is fail-stop", `Quick, test_nvram_loss_is_fail_stop);
          ("torn fsinfo falls back to the copy", `Quick, test_torn_fsinfo_falls_back);
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest ~long:false prop_single_fault_leaves_source_intact;
          QCheck_alcotest.to_alcotest ~long:false prop_identical_seeds_reproduce;
        ] );
    ]

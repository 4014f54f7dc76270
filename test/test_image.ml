(* Physical (image) dump/restore tests: Table 1 block-state logic, full and
   incremental round trips, snapshot preservation, chain validation,
   corruption detection. *)

module Bitmap = Repro_util.Bitmap
module Volume = Repro_block.Volume
module Library = Repro_tape.Library
module Tape = Repro_tape.Tape
module Tapeio = Repro_tape.Tapeio
module Fs = Repro_wafl.Fs
module Blockmap = Repro_wafl.Blockmap
module Image_dump = Repro_image.Image_dump
module Image_restore = Repro_image.Image_restore
module Generator = Repro_workload.Generator
module Compare = Repro_workload.Compare

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

let make_vol ?(blocks = 24576) label =
  Volume.create ~label (Volume.small_geometry ~data_blocks:blocks)

let make_fs ?blocks label =
  let vol = make_vol ?blocks label in
  (Fs.mkfs vol, vol)

let tape_lib label = Library.create ~slots:8 ~label ()

let assert_equal_trees ?check_times src dst =
  match Compare.trees ?check_times ~src ~dst () with
  | Ok () -> ()
  | Error diffs -> Alcotest.failf "trees differ: %s" (String.concat "; " diffs)

let fsck_clean fs =
  match Fs.fsck fs with
  | Ok () -> ()
  | Error problems -> Alcotest.failf "fsck: %s" (String.concat "; " problems)

(* Table 1: Block states for incremental image dump. *)
let test_table1_block_states () =
  let open Blockmap in
  checkb "0,0 not in either" true
    (block_state ~in_base:false ~in_target:false = Not_in_either);
  checkb "0,1 newly written" true
    (block_state ~in_base:false ~in_target:true = Newly_written);
  checkb "1,0 deleted" true (block_state ~in_base:true ~in_target:false = Deleted);
  checkb "1,1 unchanged" true (block_state ~in_base:true ~in_target:true = Unchanged);
  (* only newly-written blocks enter the incremental *)
  checkb "only 0,1 included" true
    (List.map state_included
       [ Not_in_either; Newly_written; Deleted; Unchanged ]
    = [ false; true; false; false ])

(* incremental_blocks must agree with the truth table on every block. *)
let test_table1_agrees_with_plane_algebra () =
  let bm = Blockmap.create ~nblocks:256 in
  let rng = Repro_util.Prng.create 5 in
  (* craft base (plane 1) and target (plane 2) states *)
  for vbn = 0 to 255 do
    if Repro_util.Prng.bool rng then Blockmap.mark_allocated bm vbn
  done;
  Blockmap.capture_snapshot bm ~plane:1;
  for vbn = 0 to 255 do
    if Repro_util.Prng.bool rng then Blockmap.mark_allocated bm vbn
    else if Repro_util.Prng.bool rng then Blockmap.mark_free bm vbn
  done;
  Blockmap.capture_snapshot bm ~plane:2;
  let inc = Blockmap.incremental_blocks bm ~base:1 ~target:2 in
  for vbn = 0 to 255 do
    let in_base = Blockmap.in_plane bm ~plane:1 vbn in
    let in_target = Blockmap.in_plane bm ~plane:2 vbn in
    let expect = Blockmap.state_included (Blockmap.block_state ~in_base ~in_target) in
    if Bitmap.get inc vbn <> expect then
      Alcotest.failf "vbn %d: base=%b target=%b inc=%b" vbn in_base in_target
        (Bitmap.get inc vbn)
  done

let populated ?(bytes = 1_500_000) label =
  let fs, vol = make_fs label in
  ignore (Generator.populate ~fs ~root:"/data" ~total_bytes:bytes ());
  (fs, vol)

let test_full_image_roundtrip () =
  let fs, _ = populated "src" in
  Fs.snapshot_create fs "backup";
  let lib = tape_lib "t0" in
  let r = Image_dump.full ~fs ~snapshot:"backup" ~sink:(Tapeio.sink lib) () in
  checkb "dumped blocks" true (r.Image_dump.blocks_dumped > 100);
  (* restore onto a fresh volume and mount: disaster recovery *)
  let target = make_vol "dst" in
  let rr = Image_restore.apply ~volume:target (Tapeio.source lib) in
  checki "blocks match" r.Image_dump.blocks_dumped rr.Image_restore.blocks_restored;
  let rfs = Fs.mount target in
  assert_equal_trees ~check_times:true (fs, "/data") (rfs, "/data");
  fsck_clean rfs

let test_image_restore_preserves_snapshots () =
  (* "the system you restore looks just like the system you dumped,
     snapshots and all" *)
  let fs, _ = populated ~bytes:400_000 "src" in
  ignore (Fs.create fs "/data/v1.txt" ~perms:0o644);
  Fs.write fs "/data/v1.txt" ~offset:0 "version one";
  Fs.snapshot_create fs "hourly.0";
  Fs.write fs "/data/v1.txt" ~offset:0 "version TWO";
  Fs.snapshot_create fs "hourly.1";
  Fs.write fs "/data/v1.txt" ~offset:0 "version 3!!";
  Fs.snapshot_create fs "backup";
  let lib = tape_lib "t0" in
  ignore (Image_dump.full ~fs ~snapshot:"backup" ~sink:(Tapeio.sink lib) ());
  let target = make_vol "dst" in
  ignore (Image_restore.apply ~volume:target (Tapeio.source lib));
  let rfs = Fs.mount target in
  let names = List.map (fun s -> s.Fs.name) (Fs.snapshots rfs) in
  Alcotest.(check (list string)) "all snapshots survive"
    [ "hourly.0"; "hourly.1"; "backup" ] names;
  (* and each snapshot's content is intact *)
  let check_snap name expect =
    let v = Fs.snapshot_view rfs name in
    let ino = Option.get (Fs.View.lookup v "/data/v1.txt") in
    checks name expect (Fs.View.read v ino ~offset:0 ~len:11)
  in
  check_snap "hourly.0" "version one";
  check_snap "hourly.1" "version TWO";
  check_snap "backup" "version 3!!";
  checks "live = dump state" "version 3!!" (Fs.read rfs "/data/v1.txt" ~offset:0 ~len:11);
  fsck_clean rfs

let test_incremental_image_roundtrip () =
  let fs, _ = populated "src" in
  Fs.snapshot_create fs "full";
  let lib0 = tape_lib "t0" in
  ignore (Image_dump.full ~fs ~snapshot:"full" ~sink:(Tapeio.sink lib0) ());
  (* churn the live system *)
  ignore (Fs.create fs "/data/after-full.txt" ~perms:0o644);
  Fs.write fs "/data/after-full.txt" ~offset:0 (String.make 50_000 'n');
  let victim = List.hd (Generator.file_paths fs "/data") in
  Fs.unlink fs victim;
  Fs.snapshot_create fs "incr";
  let lib1 = tape_lib "t1" in
  let ri =
    Image_dump.incremental ~fs ~base:"full" ~snapshot:"incr" ~sink:(Tapeio.sink lib1) ()
  in
  checkb "incremental much smaller" true
    (ri.Image_dump.blocks_dumped * 4 < Fs.used_blocks fs);
  (* restore chain *)
  let target = make_vol "dst" in
  ignore (Image_restore.apply ~volume:target (Tapeio.source lib0));
  ignore (Image_restore.apply ~volume:target (Tapeio.source lib1));
  let rfs = Fs.mount target in
  assert_equal_trees ~check_times:true (fs, "/data") (rfs, "/data");
  checkb "victim gone" true (Fs.lookup rfs victim = None);
  fsck_clean rfs

(* The dd baseline: a raw device copy restores correctly but moves every
   block, used or not — the motivation for interpreting the block map. *)
let test_raw_device_dump () =
  let fs, vol = populated ~bytes:400_000 "src" in
  Fs.snapshot_create fs "backup";
  (* the smart dump, for comparison *)
  let smart_lib = tape_lib "smart" in
  let smart = Image_dump.full ~fs ~snapshot:"backup" ~sink:(Tapeio.sink smart_lib) () in
  (* the raw dump of the quiesced volume *)
  Fs.cp fs;
  let raw_lib = tape_lib "raw" in
  let raw = Image_dump.raw ~volume:vol ~sink:(Tapeio.sink raw_lib) () in
  checki "raw moves the whole device" (Volume.size_blocks vol - 2)
    raw.Image_dump.blocks_dumped;
  checkb
    (Printf.sprintf "smart dump moves far less (%d vs %d blocks)"
       smart.Image_dump.blocks_dumped raw.Image_dump.blocks_dumped)
    true
    (smart.Image_dump.blocks_dumped * 2 < raw.Image_dump.blocks_dumped);
  (* and the raw stream restores to a working file system *)
  let target = make_vol "dst" in
  ignore (Image_restore.apply ~volume:target (Tapeio.source raw_lib));
  let rfs = Fs.mount target in
  assert_equal_trees (fs, "/data") (rfs, "/data");
  fsck_clean rfs

(* §4.1: "because a snapshot is a read-only instantaneous image ... copying
   all of the blocks in a snapshot results in a consistent image ... there
   is no need to take the live file system off line." Mutate the live file
   system between the snapshot and the block emission. *)
let test_image_consistency_under_churn () =
  let fs, _ = populated ~bytes:300_000 "src" in
  ignore (Fs.create fs "/data/frozen.txt" ~perms:0o644);
  Fs.write fs "/data/frozen.txt" ~offset:0 "as of the snapshot";
  Fs.snapshot_create fs "backup";
  let lib = tape_lib "t0" in
  let observe _label f =
    (* live churn after the snapshot, before the blocks stream out *)
    Fs.write fs "/data/frozen.txt" ~offset:0 "CHANGED AFTERWARDS";
    ignore (Fs.create fs "/data/late-arrival" ~perms:0o644);
    Fs.cp fs;
    f ()
  in
  ignore (Image_dump.full ~observe ~fs ~snapshot:"backup" ~sink:(Tapeio.sink lib) ());
  let target = make_vol "dst" in
  ignore (Image_restore.apply ~volume:target (Tapeio.source lib));
  let rfs = Fs.mount target in
  checks "snapshot content, not live content" "as of the snapshot"
    (Fs.read rfs "/data/frozen.txt" ~offset:0 ~len:18);
  checkb "no late arrival" true (Fs.lookup rfs "/data/late-arrival" = None);
  fsck_clean rfs

let test_incremental_requires_base () =
  let fs, _ = populated ~bytes:200_000 "src" in
  Fs.snapshot_create fs "full";
  Fs.snapshot_create fs "incr";
  let lib1 = tape_lib "t1" in
  ignore
    (Image_dump.incremental ~fs ~base:"full" ~snapshot:"incr" ~sink:(Tapeio.sink lib1) ());
  (* applying the incremental to a virgin volume must be refused *)
  let target = make_vol "dst" in
  (try
     ignore (Image_restore.apply ~volume:target (Tapeio.source lib1));
     Alcotest.fail "expected chain-invariant error"
   with Image_restore.Error _ -> ())

let test_image_corruption_detected () =
  let fs, _ = populated ~bytes:300_000 "src" in
  Fs.snapshot_create fs "backup";
  let lib = tape_lib "t0" in
  ignore (Image_dump.full ~fs ~snapshot:"backup" ~sink:(Tapeio.sink lib) ());
  let media = List.hd (Library.used_media lib) in
  Tape.corrupt_record media ~index:(Tape.media_records media / 2);
  (match Image_restore.verify (Tapeio.source lib) with
  | Ok _ -> Alcotest.fail "verify should flag corruption"
  | Error problems -> checkb "problems reported" true (problems <> []));
  let target = make_vol "dst" in
  (try
     ignore (Image_restore.apply ~volume:target (Tapeio.source lib));
     Alcotest.fail "apply should refuse a corrupt stream"
   with Image_restore.Error _ -> ())

let test_image_verify_clean () =
  let fs, _ = populated ~bytes:300_000 "src" in
  Fs.snapshot_create fs "backup";
  let lib = tape_lib "t0" in
  let r = Image_dump.full ~fs ~snapshot:"backup" ~sink:(Tapeio.sink lib) () in
  match Image_restore.verify (Tapeio.source lib) with
  | Ok blocks -> checki "all blocks verified" r.Image_dump.blocks_dumped blocks
  | Error problems -> Alcotest.failf "unexpected: %s" (String.concat "; " problems)

let test_image_dump_is_sequential () =
  (* the physical path must read the disks in ascending block order:
     overwhelmingly sequential accesses, few seeks *)
  let fs, vol = populated "src" in
  Fs.snapshot_create fs "backup";
  Volume.reset_stats vol;
  let lib = tape_lib "t0" in
  let r = Image_dump.full ~fs ~snapshot:"backup" ~sink:(Tapeio.sink lib) () in
  let seeks = Volume.seeks vol in
  checkb
    (Printf.sprintf "few seeks (%d seeks for %d blocks)" seeks r.Image_dump.blocks_dumped)
    true
    (seeks * 5 < r.Image_dump.blocks_dumped)

let test_intermediate_snapshot_coverage () =
  (* a snapshot taken between base and target whose blocks are fully
     covered survives the incremental; one with unique blocks is dropped *)
  let fs, _ = populated ~bytes:200_000 "src" in
  Fs.snapshot_create fs "base";
  let lib0 = tape_lib "t0" in
  ignore (Image_dump.full ~fs ~snapshot:"base" ~sink:(Tapeio.sink lib0) ());
  (* middle snapshot with unique data that disappears before target *)
  ignore (Fs.create fs "/data/ephemeral" ~perms:0o644);
  Fs.write fs "/data/ephemeral" ~offset:0 (String.make 40_000 'e');
  Fs.snapshot_create fs "middle";
  Fs.unlink fs "/data/ephemeral";
  (* churn so the freed blocks leave the active set *)
  Fs.cp fs;
  Fs.snapshot_create fs "target";
  let lib1 = tape_lib "t1" in
  let r =
    Image_dump.incremental ~fs ~base:"base" ~snapshot:"target" ~sink:(Tapeio.sink lib1) ()
  in
  checkb "middle dropped" true (List.mem "middle" r.Image_dump.snapshots_dropped);
  checkb "base and target kept" true
    (List.mem "base" r.Image_dump.snapshots_included
    && List.mem "target" r.Image_dump.snapshots_included);
  let target_vol = make_vol "dst" in
  ignore (Image_restore.apply ~volume:target_vol (Tapeio.source lib0));
  ignore (Image_restore.apply ~volume:target_vol (Tapeio.source lib1));
  let rfs = Fs.mount target_vol in
  let names = List.map (fun s -> s.Fs.name) (Fs.snapshots rfs) in
  checkb "no middle on restore" true (not (List.mem "middle" names));
  assert_equal_trees (fs, "/data") (rfs, "/data");
  fsck_clean rfs

(* Randomized incremental chains: full + N incrementals with churn in
   between, applied in order to a fresh volume, must yield a byte-equal,
   fsck-clean system every time. *)
let test_randomized_incremental_chains () =
  let module Ager = Repro_workload.Ager in
  for seed = 1 to 5 do
    let fs, _ = make_fs (Printf.sprintf "src%d" seed) in
    ignore
      (Generator.populate
         ~profile:{ Generator.default with Generator.seed = seed * 31 }
         ~fs ~root:"/data" ~total_bytes:400_000 ());
    let target = make_vol (Printf.sprintf "dst%d" seed) in
    let links = 1 + (seed mod 3) in
    Fs.snapshot_create fs "chain.0";
    let lib0 = tape_lib "t0" in
    ignore (Image_dump.full ~fs ~snapshot:"chain.0" ~sink:(Tapeio.sink lib0) ());
    ignore (Image_restore.apply ~volume:target (Tapeio.source lib0));
    for link = 1 to links do
      ignore
        (Ager.age
           ~churn:{ Ager.default_churn with Ager.seed = (seed * 100) + link; rounds = 2; batch = 20 }
           ~fs ~root:"/data" ());
      let name = Printf.sprintf "chain.%d" link in
      Fs.snapshot_create fs name;
      let lib = tape_lib (Printf.sprintf "t%d" link) in
      ignore
        (Image_dump.incremental ~fs
           ~base:(Printf.sprintf "chain.%d" (link - 1))
           ~snapshot:name ~sink:(Tapeio.sink lib) ());
      ignore (Image_restore.apply ~volume:target (Tapeio.source lib));
      (* retire the old base, as an operator would *)
      Fs.snapshot_delete fs (Printf.sprintf "chain.%d" (link - 1))
    done;
    let rfs = Fs.mount target in
    (match Compare.trees ~check_times:true ~src:(fs, "/data") ~dst:(rfs, "/data") () with
    | Ok () -> ()
    | Error d -> Alcotest.failf "seed %d: %s" seed (String.concat "; " d));
    fsck_clean rfs
  done

let test_restore_to_smaller_volume_fails () =
  let fs, _ = populated ~bytes:300_000 "src" in
  Fs.snapshot_create fs "backup";
  let lib = tape_lib "t0" in
  ignore (Image_dump.full ~fs ~snapshot:"backup" ~sink:(Tapeio.sink lib) ());
  let tiny = make_vol ~blocks:1024 "tiny" in
  try
    ignore (Image_restore.apply ~volume:tiny (Tapeio.source lib));
    Alcotest.fail "expected size error"
  with Image_restore.Error _ -> ()

(* ------------------------- image stream oracle ------------------------- *)

module Disk = Repro_block.Disk
module Raid = Repro_block.Raid
module Resource = Repro_sim.Resource
module Format = Repro_image.Format
module Serde = Repro_util.Serde

(* Two restore targets of one geometry, each with a CPU to charge. *)
let twin_targets geometry =
  let t label = (Volume.create ~label geometry, Resource.create ("cpu:" ^ label)) in
  (t "lib", t "oracle")

let disk_stats v =
  Array.to_list (Volume.raid_groups v)
  |> List.concat_map (fun g ->
         Array.to_list (Raid.disks g)
         |> List.map (fun d ->
                (Disk.bytes_moved d, Disk.seeks d, Int64.bits_of_float (Disk.busy_seconds d))))

let disk_blocks v =
  Array.to_list (Volume.raid_groups v)
  |> List.concat_map (fun g ->
         let stripes = Raid.data_blocks g / Raid.data_disks g in
         Array.to_list (Raid.disks g)
         |> List.map (fun d -> List.init stripes (fun s -> Disk.read d s)))

(* Restore [lib] into both targets, the library's way and the oracle's,
   and compare what each restore reports, every disk's counters, the CPU
   charge to the bit and then every block of every disk. *)
let restore_like_oracle ((va, ca), (vb, cb)) lib =
  let r = Image_restore.apply ~cpu:ca ~volume:va (Tapeio.source lib) in
  let blocks, bytes = Oracle.Image_stream.apply ~cpu:cb ~volume:vb (Tapeio.source lib) in
  r.Image_restore.blocks_restored = blocks
  && r.Image_restore.bytes_read = bytes
  && disk_stats va = disk_stats vb
  && Int64.equal
       (Int64.bits_of_float (Resource.busy ca))
       (Int64.bits_of_float (Resource.busy cb))

let same_disks ((va, _), (vb, _)) =
  List.equal (List.equal String.equal) (disk_blocks va) (disk_blocks vb)

(* Random file systems, dumped whole and then incrementally after a day
   of churn, in one to three parts each. Big enough trees fill several
   [flush_blocks] batches. *)
let prop_stream_equals_oracle =
  QCheck2.Test.make ~count:6 ~name:"image stream: restores = oracle, block for block"
    QCheck2.Gen.(triple (int_range 1 1000) (int_range 100_000 9_000_000) (int_range 1 3))
    (fun (seed, bytes, nparts) ->
      let fs, vol = make_fs "src" in
      ignore
        (Generator.populate
           ~profile:{ Generator.default with Generator.seed }
           ~fs ~root:"/data" ~total_bytes:bytes ());
      Fs.snapshot_create fs "full";
      let dump kind =
        List.init nparts (fun i ->
            let lib = tape_lib (Printf.sprintf "t%d" i) in
            ignore
              (match kind with
              | `Full -> Image_dump.full ~part:(i, nparts) ~fs ~snapshot:"full" ~sink:(Tapeio.sink lib) ()
              | `Incr ->
                Image_dump.incremental ~part:(i, nparts) ~fs ~base:"full" ~snapshot:"incr"
                  ~sink:(Tapeio.sink lib) ());
            lib)
      in
      let full = dump `Full in
      ignore
        (Repro_workload.Ager.age
           ~churn:{ Repro_workload.Ager.default_churn with seed; rounds = 2; batch = 30 }
           ~fs ~root:"/data" ());
      Fs.snapshot_create fs "incr";
      let incr = dump `Incr in
      let targets = twin_targets (Volume.geometry_of vol) in
      List.for_all (restore_like_oracle targets) (full @ incr) && same_disks targets)

(* Raw device dumps of random volumes over one to three RAID groups: every
   block but the fsinfo pair, so batches run across group edges. *)
let prop_raw_stream_equals_oracle =
  QCheck2.Test.make ~count:10 ~name:"image stream: raw dumps = oracle across groups"
    QCheck2.Gen.(
      triple (int_range 1 3) (int_range 3 9) (pair (int_range 64 1200) (int_bound 1000)))
    (fun (groups, disks, (bpd, seed)) ->
      let geometry = Volume.geometry ~groups ~disks_per_group:disks ~blocks_per_disk:bpd () in
      let vol = Volume.create ~label:"src" geometry in
      let fs = Fs.mkfs vol in
      ignore
        (Generator.populate
           ~profile:{ Generator.default with Generator.seed }
           ~fs ~root:"/data" ~total_bytes:(Volume.size_blocks vol * 1024) ());
      Fs.cp fs;
      let lib = tape_lib "raw" in
      ignore (Image_dump.raw ~volume:vol ~sink:(Tapeio.sink lib) ());
      let targets = twin_targets geometry in
      restore_like_oracle targets lib && same_disks targets)

(* A hand-built stream: header, then extents of [(vbn, blocks)], then the
   trailer; [damage] may change the record image of extent [i]. *)
let stream_lib ?(damage = fun _ r -> r) extents =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Format.encode_header
       {
         Format.kind = Format.Full;
         snap_name = "s";
         base_name = "";
         volume_blocks = 4096;
         block_count = List.fold_left (fun a (_, bl) -> a + Array.length bl) 0 extents;
         dump_date = 0.0;
         generation = 1;
       });
  List.iteri
    (fun i (vbn, blocks) ->
      let r = Buffer.create 4096 in
      Format.write_extent (Buffer.add_string r) ~vbn blocks;
      Buffer.add_string b (damage i (Buffer.contents r)))
    extents;
  let src_fs = Fs.mkfs (make_vol ~blocks:4096 "fsinfo") in
  Buffer.add_string b
    (Format.encode_trailer ~fsinfo:(Volume.read (Fs.volume src_fs) Repro_wafl.Layout.fsinfo_vbn_primary));
  let lib = tape_lib "hand" in
  let sink = Tapeio.sink lib in
  Tapeio.output sink (Buffer.contents b);
  Tapeio.close_sink sink;
  lib

let contains ~needle hay =
  let n = String.length needle in
  let rec go i = i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let stamped vbn = String.init 4096 (fun i -> Char.chr ((vbn + i) land 0xff))
let extent vbn n = (vbn, Array.init n (fun k -> stamped (vbn + k)))

(* 33 full extents: the first 2048 blocks are written as one batch
   before the 33rd extent is read. A bad checksum in the 33rd writes none
   of its blocks; one in the 2nd writes nothing at all. *)
let test_bad_crc_writes_nothing () =
  let extents = List.init 33 (fun i -> extent (2 + (i * 64)) 64) in
  let flip r =
    let b = Bytes.of_string r in
    Bytes.set b 5000 (Char.chr (Char.code (Bytes.get b 5000) lxor 1));
    Bytes.to_string b
  in
  let restore bad =
    let vol = make_vol ~blocks:4096 "dst" in
    let lib = stream_lib ~damage:(fun i r -> if i = bad then flip r else r) extents in
    (match Image_restore.apply ~volume:vol (Tapeio.source lib) with
    | _ -> Alcotest.failf "extent %d: a bad checksum was restored" bad
    | exception Image_restore.Error _ -> ());
    (match Image_restore.verify (Tapeio.source lib) with
    | Ok _ -> Alcotest.failf "extent %d: verify passed a bad checksum" bad
    | Error _ -> ());
    vol
  in
  let vol = restore 32 in
  let bad_vbn = 2 + (32 * 64) in
  for vbn = bad_vbn to bad_vbn + 63 do
    checkb (Printf.sprintf "vbn %d not written" vbn) true
      (Repro_block.Block.is_zero (Volume.read vol vbn))
  done;
  checks "the batch before it is on disk" (stamped 2) (Volume.read vol 2);
  let vol = restore 1 in
  for vbn = 2 to 200 do
    checkb (Printf.sprintf "vbn %d not written" vbn) true
      (Repro_block.Block.is_zero (Volume.read vol vbn))
  done

(* Extents come in ascending vbn order; one that starts at or below the
   last vbn restored (overlapping, repeated or going back) is a corrupt
   stream to both apply and verify. *)
let test_non_ascending_refused () =
  let ok = stream_lib [ extent 100 4; extent 104 2; extent 300 1 ] in
  ignore (Image_restore.apply ~volume:(make_vol ~blocks:4096 "dst") (Tapeio.source ok));
  List.iter
    (fun (name, extents) ->
      let lib = stream_lib extents in
      (match Image_restore.apply ~volume:(make_vol ~blocks:4096 "dst") (Tapeio.source lib) with
      | _ -> Alcotest.failf "%s: restored" name
      | exception Image_restore.Error m ->
        checkb (name ^ ": " ^ m) true
          (contains ~needle:"does not follow" m));
      match Image_restore.verify (Tapeio.source lib) with
      | Ok _ -> Alcotest.failf "%s: verified" name
      | Error _ -> ())
    [
      ("overlapping", [ extent 100 4; extent 102 4 ]);
      ("starting on the last vbn", [ extent 100 4; extent 103 2 ]);
      ("repeated", [ extent 100 4; extent 100 4 ]);
      ("going back", [ extent 100 4; extent 50 1 ]);
    ]

let suite =
  [
    ("Table 1: block states", `Quick, test_table1_block_states);
    ("Table 1 agrees with plane algebra", `Quick, test_table1_agrees_with_plane_algebra);
    ("full image round trip (disaster recovery)", `Quick, test_full_image_roundtrip);
    ("restore preserves snapshots", `Quick, test_image_restore_preserves_snapshots);
    ("incremental image round trip", `Quick, test_incremental_image_roundtrip);
    ("raw device (dd) baseline", `Quick, test_raw_device_dump);
    ("image consistency under live churn", `Quick, test_image_consistency_under_churn);
    ("incremental refuses missing base", `Quick, test_incremental_requires_base);
    ("corruption detected and refused", `Quick, test_image_corruption_detected);
    ("verify passes clean streams", `Quick, test_image_verify_clean);
    ("image dump reads sequentially", `Quick, test_image_dump_is_sequential);
    ("intermediate snapshot coverage", `Quick, test_intermediate_snapshot_coverage);
    ("randomized incremental chains", `Slow, test_randomized_incremental_chains);
    ("restore to smaller volume fails", `Quick, test_restore_to_smaller_volume_fails);
  ]

let () =
  Alcotest.run "image"
    [
      ("physical", suite);
      ( "oracle",
        [
          QCheck_alcotest.to_alcotest ~long:false prop_stream_equals_oracle;
          QCheck_alcotest.to_alcotest ~long:false prop_raw_stream_equals_oracle;
          Alcotest.test_case "bad checksum writes none of its blocks" `Quick
            test_bad_crc_writes_nothing;
          Alcotest.test_case "non-ascending extent refused" `Quick test_non_ascending_refused;
        ] );
    ]

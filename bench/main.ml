(* The benchmark harness.

   Part 1 regenerates every table of the paper's evaluation (one harness
   call per table — Tables 1, 2, 3, 4, 5 — plus the section 5.1
   concurrent-volumes claim and the section 5.2/5.3 scaling summary).

   Part 2 runs the ablations called out in DESIGN.md section 5: aging,
   NVRAM on the restore path, file-size distribution, and full-stripe vs
   read-modify-write RAID writes.

   Part 3 registers one Bechamel microbenchmark per table, measuring the
   wall-clock cost of the mechanism behind each table on this machine
   (plane algebra for Table 1, dump/restore passes for Tables 2/3, the
   multi-stream fluid solver for Tables 4/5). *)

module Experiment = Repro_backup.Experiment
module Report = Repro_backup.Report
module Engine = Repro_backup.Engine

(* Build a validated job description and run it. *)
let backup eng ~strategy ?level ?subtree ?exclude ?label ?parts ?drives ?resume
    () =
  Engine.backup_job eng
    (Engine.Job.make ~strategy ?level ?subtree ?exclude ?label ?parts ?drives
       ?resume ())
module Strategy = Repro_backup.Strategy
module Scheduler = Repro_backup.Scheduler
module Instrument = Repro_backup.Instrument
module Resource = Repro_sim.Resource
module Cost = Repro_sim.Cost
module Volume = Repro_block.Volume
module Disk = Repro_block.Disk
module Raid = Repro_block.Raid
module Library = Repro_tape.Library
module Tape = Repro_tape.Tape
module Tapeio = Repro_tape.Tapeio
module Fs = Repro_wafl.Fs
module Blockmap = Repro_wafl.Blockmap
module Dump = Repro_dump.Dump
module Restore = Repro_dump.Restore
module Image_dump = Repro_image.Image_dump
module Image_restore = Repro_image.Image_restore
module Generator = Repro_workload.Generator
module Ager = Repro_workload.Ager
module Bitmap = Repro_util.Bitmap
module Crc32 = Repro_util.Crc32
module Block = Repro_block.Block
module Fault = Repro_fault.Fault
module Retry = Repro_fault.Retry
module Obs = Repro_obs.Obs
module Prof = Repro_prof.Prof
module Fleet = Repro_fleet.Fleet

let ppf = Format.std_formatter
let say fmt = Format.fprintf ppf (fmt ^^ "@.")

(* ------------------------------------------------------------------ *)
(* Machine-readable results                                            *)

(* Every table run also lands as a BENCH_*.json file next to the binary,
   so CI can diff runs against bench/baselines/ without scraping the
   pretty-printed tables. Only simulated quantities go in (rates, ratios,
   counts) — host wall-clock stays out so the files are deterministic for
   a given seed. The one exception is BENCH_speed.json (Part 10), which
   exists precisely to record host wall-clock throughput; its baseline is
   compared by ratio inside the bench, never byte-diffed. *)

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* Committed results, relative to the repository root (the cwd of
   `dune exec bench/main.exe` there). *)
let baseline_dir = "bench/baselines"

let json_of_operation (op : Experiment.operation) =
  Printf.sprintf
    {|{"name":%S,"elapsed_s":%.6g,"mb_s":%.6g,"gb_h":%.6g,"payload_bytes":%d,"streams":%d}|}
    op.Experiment.op_name (Experiment.elapsed op) (Experiment.mb_s op)
    (Experiment.gb_h op) op.Experiment.payload_bytes op.Experiment.stream_count

let json_of_basic ~table (b : Experiment.basic) =
  Printf.sprintf
    {|{"table":%S,"tapes":%d,"data_bytes":%d,"seed":%d,"files":%d,"fragmentation":%.6g,"operations":[%s]}
|}
    table b.Experiment.tapes b.Experiment.cfg.Experiment.data_bytes
    b.Experiment.cfg.Experiment.seed b.Experiment.files b.Experiment.fragmentation
    (String.concat ","
       (List.map json_of_operation
          [
            b.Experiment.logical_backup;
            b.Experiment.logical_restore;
            b.Experiment.physical_backup;
            b.Experiment.physical_restore;
          ]))

let emit_basic ~table ~file b =
  write_file file (json_of_basic ~table b);
  say "  [%s written]" file

(* ------------------------------------------------------------------ *)
(* Part 1: the tables                                                  *)

let table_cfg () =
  { (Experiment.quick_config ()) with Experiment.data_bytes = 24 * 1024 * 1024 }

let run_tables () =
  let cfg = table_cfg () in
  say "============================================================";
  say " Part 1: reproduction of the paper's evaluation tables";
  say " (%d MiB aged volume; see EXPERIMENTS.md for full-size runs)"
    (cfg.Experiment.data_bytes / 1024 / 1024);
  say "============================================================@.";
  Report.table1 ppf;
  say "";
  let basic = Experiment.run_basic ~tapes:1 cfg in
  Report.table2 ppf basic;
  emit_basic ~table:"table2" ~file:"BENCH_table2.json" basic;
  say "";
  Report.table3 ppf basic;
  say "";
  let par2 = Experiment.run_basic ~tapes:2 cfg in
  Report.table45 ppf par2;
  emit_basic ~table:"table4" ~file:"BENCH_table4.json" par2;
  say "";
  let par4 = Experiment.run_basic ~tapes:4 cfg in
  Report.table45 ppf par4;
  emit_basic ~table:"table5" ~file:"BENCH_table5.json" par4;
  say "";
  Report.summary ppf [ basic; par2; par4 ];
  say "";
  Report.scaling_chart ppf [ basic; par2; par4 ];
  say "";
  Report.concurrent ppf (Experiment.run_concurrent cfg);
  say ""

(* ------------------------------------------------------------------ *)
(* Part 2: ablations                                                   *)

let ablation_cfg () = Experiment.quick_config ()

let ablation_aging () =
  let cfg = ablation_cfg () in
  let fresh = Experiment.run_basic ~tapes:1 { cfg with Experiment.aged = false } in
  let aged =
    Experiment.run_basic ~tapes:1 { cfg with Experiment.aged = true; churn_rounds = 10 }
  in
  say "[ablation: aging]  (paper footnote 1: mature data sets dump slower)";
  say "  fresh volume: fragmentation %3.0f%%, logical dump %.2f MB/s"
    (100.0 *. fresh.Experiment.fragmentation)
    (Experiment.mb_s fresh.Experiment.logical_backup);
  say "  aged volume:  fragmentation %3.0f%%, logical dump %.2f MB/s"
    (100.0 *. aged.Experiment.fragmentation)
    (Experiment.mb_s aged.Experiment.logical_backup);
  say "  physical dump is layout-insensitive: %.2f vs %.2f MB/s@."
    (Experiment.mb_s fresh.Experiment.physical_backup)
    (Experiment.mb_s aged.Experiment.physical_backup)

let ablation_nvram () =
  (* At one tape the restore is tape-bound and NVRAM cost hides in the
     pipeline; at four tapes "filling in data" is CPU-bound (Table 5 shows
     100%), which is exactly where bypassing NVRAM pays. *)
  let cfg = { (ablation_cfg ()) with Experiment.data_bytes = 16 * 1024 * 1024 } in
  let fill b =
    match
      List.find_opt
        (fun (s : Instrument.stage_summary) -> s.Instrument.stage_label = "filling in data")
        b.Experiment.logical_restore.Experiment.report.Instrument.stages
    with
    | Some s -> (Instrument.stage_elapsed s, Experiment.stage_cpu s)
    | None -> (0.0, 0.0)
  in
  let with_nvram = Experiment.run_basic ~tapes:4 cfg in
  let bypass =
    Experiment.run_basic ~tapes:4
      { cfg with Experiment.costs = { cfg.Experiment.costs with Cost.nvram_per_byte = 0.0 } }
  in
  let e1, c1 = fill with_nvram and e2, c2 = fill bypass in
  say "[ablation: NVRAM on the logical restore path]  (paper footnote 2)";
  say "  through NVRAM (4 tapes): filling-in-data %.2f s at %.0f%% CPU" e1 (100. *. c1);
  say "  bypassing it (4 tapes):  filling-in-data %.2f s at %.0f%% CPU@." e2 (100. *. c2)

let ablation_file_size () =
  let cfg = ablation_cfg () in
  let with_median m =
    Experiment.run_basic ~tapes:1
      {
        cfg with
        Experiment.profile =
          { cfg.Experiment.profile with Generator.median_file_bytes = m };
      }
  in
  let small = with_median 4096.0 in
  let large = with_median 131072.0 in
  say "[ablation: file-size distribution]";
  say "  4 KB median (%4d files): logical dump %.2f MB/s, restore %.2f MB/s"
    small.Experiment.files
    (Experiment.mb_s small.Experiment.logical_backup)
    (Experiment.mb_s small.Experiment.logical_restore);
  say "  128 KB median (%3d files): logical dump %.2f MB/s, restore %.2f MB/s"
    large.Experiment.files
    (Experiment.mb_s large.Experiment.logical_backup)
    (Experiment.mb_s large.Experiment.logical_restore);
  say "  physical path is file-count-insensitive: %.2f vs %.2f MB/s@."
    (Experiment.mb_s small.Experiment.physical_backup)
    (Experiment.mb_s large.Experiment.physical_backup)

let ablation_stripe_writes () =
  let make () =
    Raid.create ~label:"rg" ~ndisks:8 ~blocks_per_disk:512 (Disk.default_params ~blocks:512)
  in
  let width r = Raid.data_disks r in
  let data r = Array.init (width r) (fun i -> String.make 4096 (Char.chr (65 + i))) in
  let a = make () in
  for s = 0 to 63 do
    Raid.write_stripe a s (data a)
  done;
  let stripe_busy =
    Array.fold_left (fun acc d -> acc +. Disk.busy_seconds d) 0.0 (Raid.disks a)
  in
  let b = make () in
  for s = 0 to 63 do
    for i = 0 to width b - 1 do
      Raid.write b ((s * width b) + i) (data b).(i)
    done
  done;
  let rmw_busy =
    Array.fold_left (fun acc d -> acc +. Disk.busy_seconds d) 0.0 (Raid.disks b)
  in
  say "[ablation: write allocation]  (why WAFL is write-anywhere)";
  say "  64 stripes as full-stripe writes:    %.3f disk-seconds" stripe_busy;
  say "  same blocks via read-modify-write:   %.3f disk-seconds (%.1fx)@." rmw_busy
    (rmw_busy /. stripe_busy)

let ablation_raw_vs_smart () =
  (* paper section 4: the dd baseline vs interpreting the block map *)
  let vol = Volume.create ~label:"rawsrc" (Volume.small_geometry ~data_blocks:16384) in
  let fs = Fs.mkfs vol in
  ignore (Generator.populate ~fs ~root:"/data" ~total_bytes:(8 * 1024 * 1024) ());
  Fs.snapshot_create fs "b";
  let smart_lib = Library.create ~slots:32 ~label:"smart" () in
  Volume.reset_stats vol;
  let smart = Image_dump.full ~fs ~snapshot:"b" ~sink:(Tapeio.sink smart_lib) () in
  let smart_disk = Volume.busy_seconds vol in
  let raw_lib = Library.create ~slots:32 ~label:"raw" () in
  Volume.reset_stats vol;
  let raw = Image_dump.raw ~volume:vol ~sink:(Tapeio.sink raw_lib) () in
  let raw_disk = Volume.busy_seconds vol in
  say "[baseline: raw device copy (dd) vs block-map-aware image dump]";
  say "  raw:   %7d blocks, %9d stream bytes, %.2f disk-array-seconds"
    raw.Image_dump.blocks_dumped raw.Image_dump.bytes_written raw_disk;
  say "  smart: %7d blocks, %9d stream bytes, %.2f disk-array-seconds"
    smart.Image_dump.blocks_dumped smart.Image_dump.bytes_written smart_disk;
  say "  interpreting the free-block map moves %.1fx less data (and enables incrementals)@."
    (Float.of_int raw.Image_dump.blocks_dumped
    /. Float.of_int (Stdlib.max 1 smart.Image_dump.blocks_dumped))

let ablation_tar_vs_dump () =
  (* paper section 3: dump vs the other well-known logical formats *)
  let module Tar = Repro_dump.Tar in
  let module Dumpdates = Repro_dump.Dumpdates in
  let vol = Volume.create ~label:"tarsrc" (Volume.small_geometry ~data_blocks:16384) in
  let fs = Fs.mkfs vol in
  ignore (Generator.populate ~fs ~root:"/data" ~total_bytes:(4 * 1024 * 1024) ());
  let cut = Fs.now fs in
  let dd = Dumpdates.create () in
  let dl0 = Library.create ~slots:32 ~label:"d0" () in
  let view = Fs.active_view fs in
  let d0 =
    Dump.run ~level:0 ~dumpdates:dd ~view ~subtree:"/data" ~label:"d" ~date:cut
      ~sink:(Tapeio.sink dl0) ()
  in
  let tl0 = Library.create ~slots:32 ~label:"t0" () in
  let t0 = Tar.create ~view ~subtree:"/data" ~sink:(Tapeio.sink tl0) () in
  (* a day of churn, then incrementals from both *)
  ignore
    (Ager.age ~churn:{ Ager.default_churn with Ager.rounds = 2; batch = 25 } ~fs
       ~root:"/data" ());
  let view1 = Fs.active_view fs in
  let dl1 = Library.create ~slots:32 ~label:"d1" () in
  let d1 =
    Dump.run ~level:1 ~dumpdates:dd ~view:view1 ~subtree:"/data" ~label:"d"
      ~date:(Fs.now fs) ~sink:(Tapeio.sink dl1) ()
  in
  let tl1 = Library.create ~slots:32 ~label:"t1" () in
  let t1 = Tar.create ~newer:cut ~view:view1 ~subtree:"/data" ~sink:(Tapeio.sink tl1) () in
  say "[baseline: dump vs tar]  (paper section 3)";
  say "  full:        dump %9d bytes   tar %9d bytes" d0.Dump.bytes_written
    t0.Tar.bytes_written;
  say "  incremental: dump %9d bytes   tar %9d bytes" d1.Dump.bytes_written
    t1.Tar.bytes_written;
  say
    "  and only dump's inode maps let an incremental restore apply deletions and renames@."

let run_ablations () =
  say "============================================================";
  say " Part 2: ablations and baselines (DESIGN.md section 5)";
  say "============================================================@.";
  ablation_aging ();
  ablation_nvram ();
  ablation_file_size ();
  ablation_stripe_writes ();
  ablation_raw_vs_smart ();
  ablation_tar_vs_dump ()

(* ------------------------------------------------------------------ *)
(* Part 3: Bechamel microbenchmarks, one per table                     *)

open Bechamel
open Toolkit

(* Shared fixtures, built once. *)
let fixture_blocks = 64 * 1024

let fixture_bmap =
  let bm = Blockmap.create ~nblocks:fixture_blocks in
  let rng = Repro_util.Prng.create 17 in
  for vbn = 0 to fixture_blocks - 1 do
    if Repro_util.Prng.bool rng then Blockmap.mark_allocated bm vbn
  done;
  Blockmap.capture_snapshot bm ~plane:1;
  for _ = 0 to 5000 do
    let vbn = Repro_util.Prng.int rng fixture_blocks in
    if Repro_util.Prng.bool rng then Blockmap.mark_allocated bm vbn
    else Blockmap.mark_free bm vbn
  done;
  Blockmap.capture_snapshot bm ~plane:2;
  bm

let fixture_fs =
  let vol = Volume.create ~label:"bench" (Volume.small_geometry ~data_blocks:8192) in
  let fs = Fs.mkfs vol in
  ignore (Generator.populate ~fs ~root:"/data" ~total_bytes:600_000 ());
  Fs.snapshot_create fs "bench";
  fs

let fixture_dump_lib =
  let lib = Library.create ~slots:8 ~label:"fixdump" () in
  let view = Fs.snapshot_view fixture_fs "bench" in
  ignore
    (Dump.run ~view ~subtree:"/data" ~label:"bench" ~date:(Fs.now fixture_fs)
       ~sink:(Tapeio.sink lib) ());
  lib

let fixture_image_lib =
  let lib = Library.create ~slots:8 ~label:"fiximg" () in
  ignore (Image_dump.full ~fs:fixture_fs ~snapshot:"bench" ~sink:(Tapeio.sink lib) ());
  lib

(* Table 1: the plane set-difference behind incremental image dump. *)
let bench_table1 =
  Test.make ~name:"table1.incremental-plane-diff"
    (Staged.stage (fun () ->
         Sys.opaque_identity
           (Bitmap.count (Blockmap.incremental_blocks fixture_bmap ~base:1 ~target:2))))

(* Table 2/3 logical side: a full dump pass over the fixture tree. *)
let bench_table2_logical =
  Test.make ~name:"table2.logical-dump-pass"
    (Staged.stage (fun () ->
         let lib = Library.create ~slots:8 ~label:"t2l" () in
         let view = Fs.snapshot_view fixture_fs "bench" in
         Sys.opaque_identity
           (Dump.run ~view ~subtree:"/data" ~label:"bench" ~date:(Fs.now fixture_fs)
              ~sink:(Tapeio.sink lib) ())))

(* Table 2/3 physical side: a full image dump pass. *)
let bench_table2_physical =
  Test.make ~name:"table2.physical-dump-pass"
    (Staged.stage (fun () ->
         let lib = Library.create ~slots:8 ~label:"t2p" () in
         Sys.opaque_identity
           (Image_dump.full ~fs:fixture_fs ~snapshot:"bench" ~sink:(Tapeio.sink lib) ())))

(* Table 3 restore side: full logical restore into a fresh file system. *)
let bench_table3_restore =
  Test.make ~name:"table3.logical-restore-pass"
    (Staged.stage (fun () ->
         let vol = Volume.create ~label:"t3" (Volume.small_geometry ~data_blocks:8192) in
         let fs = Fs.mkfs vol in
         let session = Restore.session ~fs ~target:"/r" () in
         Sys.opaque_identity (Restore.apply session (Tapeio.source fixture_dump_lib))))

let bench_table3_physical_restore =
  Test.make ~name:"table3.physical-restore-pass"
    (Staged.stage (fun () ->
         let vol = Volume.create ~label:"t3p" (Volume.small_geometry ~data_blocks:8192) in
         Sys.opaque_identity
           (Image_restore.apply ~volume:vol (Tapeio.source fixture_image_lib))))

(* Tables 4/5: the multi-stream fluid runner that turns measured demands
   into parallel elapsed times on the scheduler core. *)
let bench_table45_solver =
  Test.make ~name:"table45.stream-solver-4streams"
    (Staged.stage (fun () ->
         let disk = Resource.create "disk" in
         let cpu = Resource.create "cpu" in
         let streams =
           List.init 4 (fun i ->
               let tape = Resource.create (Printf.sprintf "tape%d" i) in
               {
                 Instrument.stream_label = Printf.sprintf "s%d" i;
                 stages =
                   List.init 5 (fun s ->
                       Instrument.stage
                         (Printf.sprintf "stage%d" s)
                         [
                           Instrument.demand disk 0.2;
                           Instrument.demand cpu 0.3;
                           Instrument.demand tape 0.5;
                         ]);
               })
         in
         Sys.opaque_identity (Instrument.run streams)))

let run_microbenchmarks () =
  say "============================================================";
  say " Part 3: Bechamel microbenchmarks (host wall-clock)";
  say "============================================================@.";
  let tests =
    [
      bench_table1;
      bench_table2_logical;
      bench_table2_physical;
      bench_table3_restore;
      bench_table3_physical_restore;
      bench_table45_solver;
    ]
  in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None ~stabilize:true ()
  in
  let raw =
    Benchmark.all cfg instances
      (Test.make_grouped ~name:"paper" ~fmt:"%s/%s" tests)
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name r acc -> (name, r) :: acc) results [] in
  List.iter
    (fun (name, r) -> Format.fprintf ppf "  %-42s %a@." name Analyze.OLS.pp r)
    (List.sort compare rows);
  say ""

(* ------------------------------------------------------------------ *)
(* Part 4: fault-plane overhead                                        *)

(* docs/FAULTS.md: an armed-but-idle fault plane plus the engine's retry
   wrappers on the Table 2 dump pass. An armed hook pays one domain-local
   lookup and a hashtable miss when nothing is planned for the device, so
   this part reports the overhead and gates nothing. Minimum-of-N is used
   on both sides to shave scheduler noise off a difference this small. *)
let run_faults () =
  say "============================================================";
  say " Part 4: fault-plane overhead (Table 2 dump pass)";
  say "============================================================@.";
  let view = Fs.snapshot_view fixture_fs "bench" in
  let dump_once () =
    let lib = Library.create ~slots:8 ~label:"fovh" () in
    ignore
      (Dump.run ~view ~subtree:"/data" ~label:"bench" ~date:(Fs.now fixture_fs)
         ~sink:(Tapeio.sink lib) ());
    Tape.busy_seconds (Library.drive lib)
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (f ()));
    Unix.gettimeofday () -. t0
  in
  let iters = 60 in
  let plane = Fault.plan [] in
  let armed_sim = ref 0.0 in
  let armed_once () =
    Fault.with_armed plane (fun () ->
        armed_sim := Retry.run ~label:"bench" dump_once)
  in
  (* warm caches (file system LRU, allocator) before either side is timed,
     then interleave the two sides so drift cancels instead of biasing
     whichever ran second *)
  let bare_sim = ref 0.0 in
  for _ = 1 to 5 do
    bare_sim := dump_once ();
    armed_once ()
  done;
  let bare = ref infinity and armed = ref infinity in
  for _ = 1 to iters do
    bare := Float.min !bare (time dump_once);
    armed := Float.min !armed (time armed_once)
  done;
  let bare = !bare and armed = !armed and bare_sim = !bare_sim in
  let overhead = (armed -. bare) /. bare *. 100.0 in
  say "  disarmed dump pass:          %8.3f ms (best of %d)" (bare *. 1e3) iters;
  say "  armed idle plane + Retry.run:%8.3f ms (best of %d)" (armed *. 1e3) iters;
  say "  wall-clock overhead:         %8.2f %%  (reported, not gated)" overhead;
  say "  simulated tape seconds:      %.6f vs %.6f (%s)" bare_sim !armed_sim
    (if Float.equal bare_sim !armed_sim then "identical — plane is neutral"
     else "DIFFER: idle plane perturbed the model!");
  say "  plane events injected:       %d@." (Fault.injected plane)

(* ------------------------------------------------------------------ *)
(* Part 5: observability-plane overhead                                 *)

(* The claim in docs/OBSERVABILITY.md: an armed-but-disabled obs plane
   costs under 1% on the Table 2 dump pass. Every instrumentation hook
   starts with the same load-and-branch as the fault plane's, so the
   disabled cost should vanish into noise; measure it with the same
   interleaved minimum-of-N methodology as Part 4. Writes BENCH_obs.json
   and returns whether the budget held, so CI can gate on it. *)
let run_obs () =
  say "============================================================";
  say " Part 5: observability-plane overhead (Table 2 dump pass)";
  say "============================================================@.";
  let view = Fs.snapshot_view fixture_fs "bench" in
  let dump_once () =
    let lib = Library.create ~slots:8 ~label:"oovh" () in
    ignore
      (Dump.run ~view ~subtree:"/data" ~label:"bench" ~date:(Fs.now fixture_fs)
         ~sink:(Tapeio.sink lib) ());
    Tape.busy_seconds (Library.drive lib)
  in
  (* One dump pass is ~2 ms — too close to scheduler/timer noise for a
     sub-1% comparison, and minimum-of-N flaps several percent between
     runs at that scale. Instead: batch several passes per sample, time
     the two sides back to back as a pair (alternating which goes first
     so GC debt and thermal drift land on both sides), and take the
     median of the per-pair ratios. Noise can only inflate that estimate
     (the structural overhead is one load-and-branch per instrumented
     operation), so the gate takes the best of up to three measurement
     rounds — a tighter lower-bound estimate, not a re-roll of a fair
     coin. *)
  let reps = 8 in
  let time f =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      ignore (Sys.opaque_identity (f ()))
    done;
    (Unix.gettimeofday () -. t0) /. Float.of_int reps
  in
  let iters = 60 in
  let plane = Obs.create ~enabled:false () in
  let armed_sim = ref 0.0 in
  let armed_once () = Obs.with_armed plane (fun () -> armed_sim := dump_once ()) in
  let bare_sim = ref 0.0 in
  for _ = 1 to 5 do
    bare_sim := dump_once ();
    armed_once ()
  done;
  let measure () =
    Gc.full_major ();
    let ratios = Array.make iters 0.0 in
    let bare = ref infinity and armed = ref infinity in
    for i = 0 to iters - 1 do
      let b, a =
        if i mod 2 = 0 then
          let b = time dump_once in
          (b, time armed_once)
        else
          let a = time armed_once in
          (time dump_once, a)
      in
      bare := Float.min !bare b;
      armed := Float.min !armed a;
      ratios.(i) <- a /. b
    done;
    Array.sort compare ratios;
    let median = (ratios.((iters - 1) / 2) +. ratios.(iters / 2)) /. 2.0 in
    (!bare, !armed, (median -. 1.0) *. 100.0)
  in
  let budget = 1.0 in
  let rounds = 3 in
  let rec best n ((_, _, o) as acc) =
    if n >= rounds || o < budget then acc
    else
      let (_, _, o') as m = measure () in
      best (n + 1) (if o' < o then m else acc)
  in
  let bare, armed, overhead = best 1 (measure ()) in
  let bare_sim = !bare_sim in
  let neutral = Float.equal bare_sim !armed_sim in
  let ok = overhead < budget && neutral in
  say "  plane disarmed:              %8.3f ms (best of %d)" (bare *. 1e3) iters;
  say "  plane armed but disabled:    %8.3f ms (best of %d)" (armed *. 1e3) iters;
  say "  overhead (median of %d paired ratios, best of <=%d rounds): %6.2f %%  (budget: < %.0f%%)"
    iters rounds overhead budget;
  say "  simulated tape seconds:      %.6f vs %.6f (%s)" bare_sim !armed_sim
    (if neutral then "identical — plane is neutral"
     else "DIFFER: disabled plane perturbed the model!");
  say "  events recorded while off:   %d" (List.length (Obs.events plane));
  say "  verdict:                     %s@." (if ok then "PASS" else "FAIL");
  write_file "BENCH_obs.json"
    (Printf.sprintf
       {|{"bench":"obs-overhead","bare_ms":%.6g,"armed_disabled_ms":%.6g,"overhead_pct":%.6g,"budget_pct":%.6g,"sim_neutral":%b,"pass":%b}
|}
       (bare *. 1e3) (armed *. 1e3) overhead budget neutral ok);
  say "  [BENCH_obs.json written]@.";
  ok

(* ------------------------------------------------------------------ *)
(* Part 6: data-plane drive scaling                                     *)

(* The claim behind Tables 4/5, this time from the engine itself rather
   than the fluid solver: Engine.backup_job over a pool of 1/2/4 stackers,
   elapsed simulated time from the drive-pool scheduler. Physical dump's
   sequential reads scale with the drives (paper: 3.6x at four); logical
   dump's inode-order reads saturate the source array first (paper:
   2.75x). The volume is built near-full — an image dump partitions the
   physical address space, so an empty tail would starve one part and no
   drive count could help it (the paper's volumes were full too). Writes
   BENCH_scaling.json (simulated quantities only, deterministic for the
   seed) and returns whether the gates held, so CI can diff and gate. *)
let run_scaling () =
  say "============================================================";
  say " Part 6: data-plane drive scaling (Tables 4/5 from the engine)";
  say "============================================================@.";
  let seed = 42 and blocks = 2048 and bytes = 6_000_000 and parts = 4 in
  let elapsed strategy k =
    let vol =
      Volume.create ~label:"scale" (Volume.small_geometry ~data_blocks:blocks)
    in
    let fs = Fs.mkfs vol in
    let profile = { Generator.default with Generator.seed } in
    ignore (Generator.populate ~profile ~fs ~root:"/data" ~total_bytes:bytes ());
    let libs =
      List.init 4 (fun i -> Library.create ~slots:16 ~label:(Printf.sprintf "S%d" i) ())
    in
    let eng = Engine.create ~fs ~libraries:libs () in
    let drives = List.init k Fun.id in
    (match strategy with
    | Strategy.Logical ->
      ignore (backup eng ~strategy ~subtree:"/data" ~parts ~drives ())
    | Strategy.Physical ->
      ignore (backup eng ~strategy ~label:"vol" ~parts ~drives ()));
    match Engine.last_stats eng with
    | Some st -> st.Scheduler.p_elapsed
    | None -> 0.0
  in
  let sweep name strategy ~paper ~tol =
    let es = List.map (elapsed strategy) [ 1; 2; 4 ] in
    let e1 = List.nth es 0 and e2 = List.nth es 1 and e4 = List.nth es 2 in
    let speedup = e1 /. e4 in
    let monotone = e2 <= e1 +. 1e-9 && e4 <= e2 +. 1e-9 in
    say "  %-8s  1 drive %7.2f s   2 drives %7.2f s   4 drives %7.2f s" name e1 e2 e4;
    say "            speedup at 4 drives: %.2fx  (paper: %.2fx +/- %.2f)%s" speedup
      paper tol
      (if monotone then "" else "  NOT MONOTONE");
    (es, speedup, monotone && Float.abs (speedup -. paper) <= tol)
  in
  let log_es, log_speedup, log_ok = sweep "logical" Strategy.Logical ~paper:2.75 ~tol:0.75 in
  let phy_es, phy_speedup, phy_ok = sweep "physical" Strategy.Physical ~paper:3.6 ~tol:0.6 in
  let shape = phy_speedup >= 3.0 && log_speedup < phy_speedup in
  let ok = log_ok && phy_ok && shape in
  say "  shape: physical >= 3.0x and above logical: %s"
    (if shape then "yes" else "NO");
  say "  verdict:                     %s@." (if ok then "PASS" else "FAIL");
  let arm name es speedup paper =
    Printf.sprintf {|"%s":{"elapsed_s":[%s],"speedup_4":%.6g,"paper_speedup":%.6g}|}
      name
      (String.concat "," (List.map (Printf.sprintf "%.6g") es))
      speedup paper
  in
  write_file "BENCH_scaling.json"
    (Printf.sprintf
       {|{"bench":"drive-scaling","seed":%d,"data_bytes":%d,"parts":%d,"drives":[1,2,4],%s,%s,"pass":%b}
|}
       seed bytes parts
       (arm "logical" log_es log_speedup 2.75)
       (arm "physical" phy_es phy_speedup 3.6)
       ok);
  say "  [BENCH_scaling.json written]@.";
  ok

(* ------------------------------------------------------------------ *)
(* Part 7: network data plane                                          *)

(* Two claims from docs/NETWORK.md, both on simulated time so the
   numbers are deterministic for the seed:

   (a) shipping a backup to a remote tape server over a fat link costs
       under 5% elapsed over the same backup on a local stacker — the
       mover pipelines the stream, so a link that is not the bottleneck
       should be invisible;

   (b) when the link IS the bottleneck, a session's achieved goodput
       lands within 5% of the closed-form bandwidth-delay model
       (Link.model_goodput), whether bandwidth-bound or window-bound.

   Writes BENCH_net.json and returns whether both gates held. *)
let run_net () =
  say "============================================================";
  say " Part 7: network data plane (remote tape server)";
  say "============================================================@.";
  let module Link = Repro_net.Link in
  let module Session = Repro_net.Session in
  (* (a) engine-level: local vs remote-over-fat-link elapsed *)
  let fat =
    Link.params ~bandwidth_bytes_s:1e9 ~latency_s:1e-5
      ~window_bytes:(16 * 1024 * 1024) ()
  in
  let elapsed strategy ~remote =
    let vol =
      Volume.create ~label:"netsrc" (Volume.small_geometry ~data_blocks:2048)
    in
    let fs = Fs.mkfs vol in
    let profile = { Generator.default with Generator.seed = 7 } in
    ignore (Generator.populate ~profile ~fs ~root:"/data" ~total_bytes:4_000_000 ());
    let local = [ Library.create ~slots:16 ~label:"local0" () ] in
    let eng = Engine.create ~fs ~libraries:local () in
    let drives =
      if remote then
        Engine.attach_remote eng ~host:"vault" ~link_params:fat
          ~libraries:[ Library.create ~slots:16 ~label:"vault0" () ]
          ()
      else [ 0 ]
    in
    ignore
      (Engine.backup_job eng
         (Engine.Job.make ~strategy ~subtree:"/data" ~parts:2 ~drives ()));
    match Engine.last_stats eng with Some st -> st.Scheduler.p_elapsed | None -> 0.0
  in
  let gate_a name strategy =
    let local = elapsed strategy ~remote:false in
    let remote = elapsed strategy ~remote:true in
    let overhead = (remote -. local) /. local *. 100.0 in
    say "  %-8s  local %7.2f s   remote (fat link) %7.2f s   overhead %5.2f %%  (budget: < 5%%)"
      name local remote overhead;
    (local, remote, overhead, overhead < 5.0)
  in
  let log_l, log_r, log_ovh, log_ok = gate_a "logical" Strategy.Logical in
  let phy_l, phy_r, phy_ovh, phy_ok = gate_a "physical" Strategy.Physical in
  (* (b) session-level: achieved goodput vs the bandwidth-delay model *)
  let goodput name params =
    let link = Link.create ~params ~label:"bench" () in
    let session = Session.connect ~host:"bench" link in
    let stream = Session.open_stream session ~deliver:(fun _ _ _ -> ()) in
    let chunk = String.make 65536 'x' in
    for _ = 1 to 64 do
      Session.write stream chunk
    done;
    let x = Session.close_stream stream in
    let model = Link.model_goodput (Link.params_of link) in
    let err =
      Float.abs (x.Session.xf_goodput_bytes_s -. model) /. model *. 100.0
    in
    say "  %-14s goodput %8.2f MiB/s   model %8.2f MiB/s   error %5.2f %%  (budget: < 5%%)"
      name
      (x.Session.xf_goodput_bytes_s /. 1048576.)
      (model /. 1048576.) err;
    (x.Session.xf_goodput_bytes_s, model, err, err < 5.0)
  in
  let bw_g, bw_m, bw_err, bw_ok =
    goodput "link-bound"
      (Link.params ~bandwidth_bytes_s:(12.5 *. 1048576.) ~latency_s:0.001 ())
  in
  let win_g, win_m, win_err, win_ok =
    goodput "window-bound"
      (Link.params ~bandwidth_bytes_s:(125. *. 1048576.) ~latency_s:0.02
         ~window_bytes:(512 * 1024) ())
  in
  let ok = log_ok && phy_ok && bw_ok && win_ok in
  say "  verdict:                     %s@." (if ok then "PASS" else "FAIL");
  write_file "BENCH_net.json"
    (Printf.sprintf
       {|{"bench":"net","logical":{"local_s":%.6g,"remote_s":%.6g,"overhead_pct":%.6g},"physical":{"local_s":%.6g,"remote_s":%.6g,"overhead_pct":%.6g},"link_bound":{"goodput_bytes_s":%.6g,"model_bytes_s":%.6g,"error_pct":%.6g},"window_bound":{"goodput_bytes_s":%.6g,"model_bytes_s":%.6g,"error_pct":%.6g},"budget_pct":5,"pass":%b}
|}
       log_l log_r log_ovh phy_l phy_r phy_ovh bw_g bw_m bw_err win_g win_m
       win_err ok);
  say "  [BENCH_net.json written]@.";
  ok

(* ------------------------------------------------------------------ *)
(* Part 8: trace analysis                                              *)

(* The analysis plane must reproduce the paper's diagnosis, not just its
   numbers: a logical dump on 4 drives is gated by the random-read
   saturation of the source disks (Table 4), a physical dump on 1 drive
   by the tape (Table 2). Runs the same fixture as Part 6 under an armed
   obs plane, classifies both runs, and checks the report is
   byte-identical across two same-seed runs. Writes BENCH_analysis.json. *)
let run_analysis () =
  say "============================================================";
  say " Part 8: trace analysis (critical path + bottleneck verdicts)";
  say "============================================================@.";
  let module Analysis = Repro_obs.Analysis in
  let seed = 42 and blocks = 2048 and bytes = 6_000_000 and parts = 4 in
  let analyze strategy k =
    let vol =
      Volume.create ~label:"scale" (Volume.small_geometry ~data_blocks:blocks)
    in
    let fs = Fs.mkfs vol in
    let profile = { Generator.default with Generator.seed } in
    ignore (Generator.populate ~profile ~fs ~root:"/data" ~total_bytes:bytes ());
    let libs =
      List.init 4 (fun i -> Library.create ~slots:16 ~label:(Printf.sprintf "S%d" i) ())
    in
    let eng = Engine.create ~fs ~libraries:libs () in
    let drives = List.init k Fun.id in
    let obs = Obs.create () in
    Obs.with_armed obs (fun () ->
        match strategy with
        | Strategy.Logical ->
          ignore (backup eng ~strategy ~subtree:"/data" ~parts ~drives ())
        | Strategy.Physical ->
          ignore (backup eng ~strategy ~label:"vol" ~parts ~drives ()));
    Analysis.analyze obs
  in
  let backup_phase (r : Analysis.report) =
    List.find (fun (p : Analysis.phase) -> p.Analysis.p_name = "backup") r.Analysis.phases
  in
  let mean_of (p : Analysis.phase) cls =
    match
      List.find_opt (fun (u : Analysis.usage) -> u.Analysis.u_class = cls) p.Analysis.p_usage
    with
    | Some u -> u.Analysis.u_mean
    | None -> 0.0
  in
  let show name (r : Analysis.report) =
    let p = backup_phase r in
    let path_parts =
      match p.Analysis.p_path with
      | Some cp -> List.length cp.Analysis.cp_steps
      | None -> 0
    in
    say "  %-18s %-13s  elapsed %7.2f s  disk %.2f  tape %.2f  path %d part%s"
      name
      (Analysis.verdict_to_string p.Analysis.p_verdict)
      p.Analysis.p_elapsed (mean_of p "disk") (mean_of p "tape") path_parts
      (if path_parts = 1 then "" else "s");
    p
  in
  let log4 = analyze Strategy.Logical 4 in
  let log4_again = analyze Strategy.Logical 4 in
  let phy1 = analyze Strategy.Physical 1 in
  let phy4 = analyze Strategy.Physical 4 in
  let p_log4 = show "logical/4-drive" log4 in
  let p_phy1 = show "physical/1-drive" phy1 in
  let p_phy4 = show "physical/4-drive" phy4 in
  let deterministic = Analysis.to_json log4 = Analysis.to_json log4_again in
  let log4_ok = p_log4.Analysis.p_verdict = Analysis.Disk_limited in
  let phy1_ok = p_phy1.Analysis.p_verdict = Analysis.Tape_limited in
  let ok = log4_ok && phy1_ok && deterministic in
  say "  logical 4-drive disk-limited:  %s" (if log4_ok then "yes" else "NO");
  say "  physical 1-drive tape-limited: %s" (if phy1_ok then "yes" else "NO");
  say "  report bytes identical across two same-seed runs: %s"
    (if deterministic then "yes" else "NO");
  say "  verdict:                     %s@." (if ok then "PASS" else "FAIL");
  let run_obj name (p : Analysis.phase) =
    Printf.sprintf
      {|"%s":{"verdict":"%s","elapsed_s":%.6g,"disk_mean":%.6g,"tape_mean":%.6g}|}
      name
      (Analysis.verdict_to_string p.Analysis.p_verdict)
      p.Analysis.p_elapsed (mean_of p "disk") (mean_of p "tape")
  in
  write_file "BENCH_analysis.json"
    (Printf.sprintf
       {|{"bench":"analysis","seed":%d,"data_bytes":%d,"parts":%d,%s,%s,%s,"deterministic":%b,"pass":%b}
|}
       seed bytes parts
       (run_obj "logical_4drive" p_log4)
       (run_obj "physical_1drive" p_phy1)
       (run_obj "physical_4drive" p_phy4)
       deterministic ok);
  say "  [BENCH_analysis.json written]@.";
  ok

(* ------------------------------------------------------------------ *)
(* Part 9: disaster recovery                                           *)

(* The DR drill from docs/REPLICATION.md, once over one hop and once
   over a 3-node cascade: replicate on a schedule, break the topology
   with a seeded fault storm (a partition mid-incremental; for the
   cascade, the tail replica's drives die mid-apply too), fail over to
   the surviving replica, and measure RPO (snapshot lag at failure) and
   RTO (time to a promoted, fsck-clean mount) from the recorded trace.
   Then heal, resync every survivor, and verify byte-identity. Gates:
   finite positive RPO/RTO, every resynced replica verifies, and the
   trace-derived DR summary is byte-identical across two same-seed
   runs. Writes BENCH_dr.json. *)
let run_dr () =
  say "============================================================";
  say " Part 9: disaster recovery (RPO/RTO under a fault storm)";
  say "============================================================@.";
  let module Repl = Repro_repl.Repl in
  let module Link = Repro_net.Link in
  let module Clock = Repro_sim.Clock in
  let module Analysis = Repro_obs.Analysis in
  let churn fs i =
    let path = Printf.sprintf "/data/churn.%d" i in
    (match Fs.lookup fs path with
    | Some _ -> ()
    | None -> ignore (Fs.create fs path ~perms:0o644));
    Fs.write fs path ~offset:0 (String.make 20_000 (Char.chr (65 + (i mod 26))))
  in
  let drill ~cascade () =
    let clk = Clock.create () in
    let obs = Obs.create ~clock:clk () in
    let vol = Volume.create ~label:"A" (Volume.small_geometry ~data_blocks:4096) in
    let fs = Fs.mkfs vol in
    let profile = { Generator.default with Generator.seed = 11 } in
    ignore (Generator.populate ~profile ~fs ~root:"/data" ~total_bytes:400_000 ());
    let t = Repl.create ~clock:clk ~primary:"A" fs in
    let params = Link.params ~mtu_bytes:8192 () in
    Obs.with_armed obs (fun () ->
        Repl.add_replica t ~upstream:"A" ~name:"B" ~params ~interval_s:60.0 ();
        if cascade then
          Repl.add_replica t ~upstream:"B" ~name:"C" ~params ~interval_s:60.0 ();
        ignore (Repl.run_until t 120.0);
        churn fs 1;
        churn fs 2;
        (* the 180 s incremental is 14 frames on the A→B link; frame 19
           lands mid-way through the 240 s transfer *)
        let specs =
          Fault.Link_partition { device = "B"; after_frames = 18 }
          ::
          (if cascade then
             [
               Fault.Disk_death { device = "C.rg0.d0"; after_ios = 5 };
               Fault.Disk_death { device = "C.rg0.d1"; after_ios = 5 };
             ]
           else [])
        in
        let plane = Fault.plan ~seed:3 specs in
        let failures = Fault.with_armed plane (fun () -> Repl.run_until t 400.0) in
        let p = Repl.promote t ~name:"B" in
        churn (Repl.fs t ~name:"B") 3;
        ignore (Repl.checkpoint t);
        Fault.revive plane ~device:"B";
        if cascade then
          Array.iter
            (fun rg ->
              Array.iter
                (fun d -> if Disk.failed d then Disk.revive d)
                (Raid.disks rg))
            (Volume.raid_groups (Repl.volume t ~name:"C"));
        let resynced name =
          ignore (Fault.with_armed plane (fun () -> Repl.resync t ~name));
          Repl.verify t ~name = Ok ()
        in
        let ok_a = resynced "A" in
        let ok_c = (not cascade) || resynced "C" in
        let dr =
          match Analysis.dr obs with
          | Some d -> d
          | None -> failwith "no DR summary in the trace"
        in
        (List.length failures, p, dr, ok_a && ok_c))
  in
  let gate name drill_fn =
    let failures, p, dr, verified = drill_fn () in
    let _, _, dr2, _ = drill_fn () in
    let deterministic = Analysis.dr_to_json dr = Analysis.dr_to_json dr2 in
    let finite x = Float.is_finite x && x > 0.0 in
    let ok = verified && finite p.Repl.rpo_s && finite p.Repl.rto_s && deterministic in
    say
      "  %-8s  %d storm failures   RPO %6.1f s   RTO %6.3f s   resync \
       verified: %s   deterministic: %s"
      name failures p.Repl.rpo_s p.Repl.rto_s
      (if verified then "yes" else "NO")
      (if deterministic then "yes" else "NO");
    (p, verified, deterministic, ok)
  in
  let one_p, one_v, one_d, one_ok = gate "one-hop" (drill ~cascade:false) in
  let cas_p, cas_v, cas_d, cas_ok = gate "cascade" (drill ~cascade:true) in
  let ok = one_ok && cas_ok in
  say "  verdict:                     %s@." (if ok then "PASS" else "FAIL");
  let obj (p : Repl.promotion) v d =
    Printf.sprintf {|{"rpo_s":%.6g,"rto_s":%.6g,"resync_ok":%b,"deterministic":%b}|}
      p.Repl.rpo_s p.Repl.rto_s v d
  in
  write_file "BENCH_dr.json"
    (Printf.sprintf
       {|{"bench":"dr","one_hop":%s,"cascade":%s,"pass":%b}
|}
       (obj one_p one_v one_d) (obj cas_p cas_v cas_d) ok);
  say "  [BENCH_dr.json written]@.";
  ok

(* ------------------------------------------------------------------ *)
(* Part 10: host-side speed (events/s, bytes/s) and profiler overhead  *)

(* Three claims from docs/PROFILING.md:

   (a) BENCH_speed.json records how fast the simulator itself runs on
       this host — wall-clock events dispatched per second and simulated
       tape bytes per second — for a single-volume logical backup and a
       multi-drive + remote-vault backup. These are wall-clock numbers,
       so the committed baseline is compared by RATIO (default 3.0x,
       override with BENCH_SPEED_RATIO), never byte-diffed: a slower CI
       runner is fine, an order-of-magnitude regression is not.

   (b) profiling OFF costs under 1% on the instrumented hot paths. The
       disarmed hook is a load-and-branch, which cannot be toggled out
       at runtime to measure directly against probe-free code — so the
       gate times a spin loop calibrated to the measured per-hook work
       of scenario (a), with and without a real enter/add/leave hook
       around each unit, using the same paired-ratio-median methodology
       as the Part 5 obs gate.

   (c) profiling ON overhead on the Table 2 dump pass is reported (not
       gated): armed vs disarmed, paired-ratio median.

   Event/byte COUNTS come from an armed profile and are deterministic
   for the seed; only the rates move with the host. Events are the
   [sim.dispatch] probe's call count — the engine's dispatch loop —
   not the top-level job count (a single-volume logical backup posts
   almost no engine events, its work rides the device schedulers, so
   that scenario is gated on tape_bytes_per_s instead; each scenario
   records its [gate_metric]). [volumes] sets the fleet sweep width:
   that many independent single-volume sims, backed up in sequence.
   Also writes the armed run's flamegraph to BENCH_speed_flame.txt. *)
let run_speed ?(volumes = 100) () =
  say "============================================================";
  say " Part 10: host-side speed and self-profiler overhead";
  say "============================================================@.";
  let module Link = Repro_net.Link in
  let seed = 42 and blocks = 2048 and bytes = 6_000_000 and parts = 4 in
  let populate () =
    let vol = Volume.create ~label:"speed" (Volume.small_geometry ~data_blocks:blocks) in
    let fs = Fs.mkfs vol in
    let profile = { Generator.default with Generator.seed } in
    ignore (Generator.populate ~profile ~fs ~root:"/data" ~total_bytes:bytes ());
    fs
  in
  let build_single () =
    let fs = populate () in
    let eng = Engine.create ~fs ~libraries:[ Library.create ~slots:16 ~label:"sv" () ] () in
    fun () ->
      ignore (backup eng ~strategy:Strategy.Logical ~subtree:"/data" ~parts ())
  in
  let build_multi_remote () =
    let fs = populate () in
    let libs =
      List.init 2 (fun i -> Library.create ~slots:16 ~label:(Printf.sprintf "L%d" i) ())
    in
    let eng = Engine.create ~fs ~libraries:libs () in
    let fat =
      Link.params ~bandwidth_bytes_s:1e9 ~latency_s:1e-5
        ~window_bytes:(16 * 1024 * 1024) ()
    in
    let remote =
      Engine.attach_remote eng ~host:"vault" ~link_params:fat
        ~libraries:
          [ Library.create ~slots:16 ~label:"V0" (); Library.create ~slots:16 ~label:"V1" () ]
        ()
    in
    let drives = [ 0; 1 ] @ remote in
    fun () ->
      ignore
        (Engine.backup_job eng
           (Engine.Job.make ~strategy:Strategy.Logical ~subtree:"/data" ~parts ~drives ()))
  in
  let counter s k =
    match List.assoc_opt k s.Prof.s_counters with Some v -> v | None -> 0
  in
  let probe_calls s name =
    List.fold_left
      (fun acc r -> if r.Prof.r_name = name then acc + r.Prof.r_calls else acc)
      0 s.Prof.s_rows
  in
  (* one armed run per scenario for counts + flamegraph (deterministic),
     then disarmed reruns on fresh fixtures for the wall clock *)
  let measure name build =
    let p = Prof.create () in
    Prof.with_armed p (build ());
    let s = Prof.summary p in
    let events = probe_calls s "sim.dispatch" in
    let tape_bytes = counter s "tape.bytes_streamed" in
    let hooks = List.fold_left (fun acc r -> acc + r.Prof.r_calls) 0 s.Prof.s_rows in
    let wall = ref infinity in
    for _ = 1 to 3 do
      let run = build () in
      Gc.full_major ();
      let t0 = Unix.gettimeofday () in
      run ();
      wall := Float.min !wall (Unix.gettimeofday () -. t0)
    done;
    let wall = !wall in
    let ev_s = Float.of_int events /. wall in
    let by_s = Float.of_int tape_bytes /. wall in
    say "  %-13s %8.1f ms   %7d events (%9.0f ev/s)   %8d tape bytes (%6.1f MiB/s)"
      name (wall *. 1e3) events ev_s tape_bytes
      (by_s /. 1048576.);
    (name, wall, events, tape_bytes, ev_s, by_s, hooks, p)
  in
  (* The fleet sweep: [volumes] independent single-volume sims — fresh
     volume, filesystem, and stacker each — backed up in sequence. The
     per-volume workload is small so the sweep measures per-sim setup
     and dispatch churn, not bulk streaming. *)
  let build_fleet () =
    let mk i =
      let vol =
        Volume.create
          ~label:(Printf.sprintf "f%03d" i)
          (Volume.small_geometry ~data_blocks:512)
      in
      let fs = Fs.mkfs vol in
      let profile =
        {
          Generator.seed = seed + i;
          median_file_bytes = 4096.0;
          sigma = 1.2;
          files_per_dir = 4;
          dirs_per_dir = 2;
          max_depth = 3;
        }
      in
      ignore (Generator.populate ~profile ~fs ~root:"/data" ~total_bytes:150_000 ());
      Engine.create ~fs
        ~libraries:[ Library.create ~slots:16 ~label:(Printf.sprintf "fs%d" i) () ]
        ()
    in
    let engines = List.init volumes mk in
    fun () ->
      List.iter
        (fun eng ->
          ignore
            (backup eng ~strategy:Strategy.Logical ~subtree:"/data"
               ~parts:2 ()))
        engines
  in
  let ((_, sv_wall, _, _, _, sv_bys, sv_hooks, _) as single) =
    measure "single-volume" build_single
  in
  let ((_, _, _, _, mr_evs, _, _, mr_prof) as multi) =
    measure "multi+remote" build_multi_remote
  in
  let ((_, _, _, _, fl_evs, _, _, _) as fleet) =
    measure (Printf.sprintf "fleet-%d" volumes) build_fleet
  in
  write_file "BENCH_speed_flame.txt" (Prof.folded mr_prof);
  say "  [BENCH_speed_flame.txt written]";
  (* paired-ratio median (Part 5 methodology): batch per sample,
     alternate which side goes first, median of per-pair ratios *)
  let paired_ratio ~reps ~iters f_bare f_other =
    let time f =
      let t0 = Unix.gettimeofday () in
      for _ = 1 to reps do
        ignore (Sys.opaque_identity (f ()))
      done;
      (Unix.gettimeofday () -. t0) /. Float.of_int reps
    in
    for _ = 1 to 3 do
      ignore (time f_bare);
      ignore (time f_other)
    done;
    Gc.full_major ();
    let ratios = Array.make iters 0.0 in
    for i = 0 to iters - 1 do
      let b, o =
        if i mod 2 = 0 then
          let b = time f_bare in
          (b, time f_other)
        else
          let o = time f_other in
          (time f_bare, o)
      in
      ratios.(i) <- o /. b
    done;
    Array.sort compare ratios;
    let median = (ratios.((iters - 1) / 2) +. ratios.(iters / 2)) /. 2.0 in
    (median -. 1.0) *. 100.0
  in
  (* (b) profiling-off gate: hook density taken from the real scenario *)
  let avg_work_s = sv_wall /. Float.of_int (Stdlib.max 1 sv_hooks) in
  let spin n =
    let x = ref 0 in
    for i = 1 to n do
      x := !x lxor i
    done;
    ignore (Sys.opaque_identity !x)
  in
  let spin_n =
    let n0 = 5_000_000 in
    let t0 = Unix.gettimeofday () in
    spin n0;
    let per = (Unix.gettimeofday () -. t0) /. Float.of_int n0 in
    Stdlib.max 16 (Float.to_int (avg_work_s /. per))
  in
  let batch = Stdlib.max 64 (Float.to_int (0.008 /. avg_work_s)) in
  let p_unit = Prof.probe "speed.unit" in
  let c_unit = Prof.counter "speed.unit_ops" in
  let bare_batch () =
    for _ = 1 to batch do
      spin spin_n
    done
  in
  let hooked_batch () =
    (* the exact hook shape used at the real call sites *)
    for _ = 1 to batch do
      let tok = Prof.enter p_unit in
      spin spin_n;
      if tok > 0 then Prof.add c_unit 1;
      Prof.leave tok
    done
  in
  let off_budget = 1.0 in
  let rounds = 3 in
  let rec best_off n acc =
    if n >= rounds || acc < off_budget then acc
    else Float.min acc (best_off (n + 1) (paired_ratio ~reps:4 ~iters:30 bare_batch hooked_batch))
  in
  let off_overhead = best_off 1 (paired_ratio ~reps:4 ~iters:30 bare_batch hooked_batch) in
  say "  profiling-off hook overhead: %6.2f %%  (budget: < %.0f%%; %d hooks, %.1f us work/hook)"
    off_overhead off_budget sv_hooks (avg_work_s *. 1e6);
  (* (c) profiling-on overhead on the Table 2 dump pass, reported only *)
  let view = Fs.snapshot_view fixture_fs "bench" in
  let dump_once () =
    let lib = Library.create ~slots:8 ~label:"povh" () in
    ignore
      (Dump.run ~view ~subtree:"/data" ~label:"bench" ~date:(Fs.now fixture_fs)
         ~sink:(Tapeio.sink lib) ())
  in
  let on_plane = Prof.create () in
  let armed_dump () = Prof.with_armed on_plane dump_once in
  let on_overhead = paired_ratio ~reps:8 ~iters:30 dump_once armed_dump in
  say "  profiling-on overhead (Table 2 dump pass): %6.2f %%  (reported, not gated)"
    on_overhead;
  (* The per-byte kernels this build runs: which CRC-32 kernel the CPU
     probe chose, and the host cost of it and of the parity xor on a
     64 KiB buffer, best of five batches. Reported, not gated: a
     host-speed figure then names the code it measured. *)
  let ns_per_byte f =
    let n = 65536 and reps = 200 in
    let best = ref infinity in
    for _ = 1 to 5 do
      let t0 = Unix.gettimeofday () in
      for _ = 1 to reps do
        f ()
      done;
      best := Float.min !best ((Unix.gettimeofday () -. t0) /. Float.of_int (n * reps))
    done;
    !best *. 1e9
  in
  let kbuf = String.init 65536 (fun i -> Char.unsafe_chr ((i * 131) land 0xff)) in
  let kdst = Bytes.make 65536 '\000' in
  let crc_ns = ns_per_byte (fun () -> ignore (Sys.opaque_identity (Crc32.string kbuf))) in
  let xor_ns = ns_per_byte (fun () -> Block.xor_into kdst kbuf) in
  say "  per-byte kernels (64 KiB):   crc32 %s %.3f ns/B, parity xor %.3f ns/B"
    Crc32.kernel crc_ns xor_ns;
  (* (a) ratio gate against the committed wall-clock baseline *)
  let ratio_budget =
    match Sys.getenv_opt "BENCH_SPEED_RATIO" with
    | Some s -> ( match float_of_string_opt s with Some r when r > 1.0 -> r | _ -> 3.0)
    | None -> 3.0
  in
  let index_from_opt s i pat =
    let n = String.length s and m = String.length pat in
    let rec go i =
      if i + m > n then None else if String.sub s i m = pat then Some i else go (i + 1)
    in
    go i
  in
  let baseline_rate json name metric =
    let key = Printf.sprintf {|"%s":|} metric in
    Option.bind (index_from_opt json 0 (Printf.sprintf {|"name":%S|} name)) (fun i ->
        Option.bind (index_from_opt json i key) (fun j ->
            let j = j + String.length key in
            let k = ref j in
            let n = String.length json in
            while
              !k < n
              && match json.[!k] with '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' -> true | _ -> false
            do
              incr k
            done;
            float_of_string_opt (String.sub json j (!k - j))))
  in
  let baseline =
    let path = Filename.concat baseline_dir "BENCH_speed.json" in
    if Sys.file_exists path then Some (read_file path) else None
  in
  (* Each scenario is gated on the metric that actually moves for it
     (its [gate_metric], also recorded in the JSON). A scenario with no
     baseline entry yet — e.g. the fleet sweep on its first run — passes
     and seeds the new baseline. *)
  let gate name metric current =
    match baseline with
    | None -> (None, true)
    | Some json -> (
      match baseline_rate json name metric with
      | None -> (None, true)
      | Some base ->
        let ok = current *. ratio_budget >= base in
        say "  %-13s %12.4g vs baseline %12.4g %s  (gate: >= 1/%.1fx)  %s" name
          current base metric ratio_budget
          (if ok then "ok" else "REGRESSION");
        (Some base, ok))
  in
  (if baseline = None then
     say "  no bench/baselines/BENCH_speed.json — ratio gate skipped");
  let _, sv_ok = gate "single_volume" "tape_bytes_per_s" sv_bys in
  let _, mr_ok = gate "multi_remote" "events_per_s" mr_evs in
  let _, fl_ok = gate "fleet" "events_per_s" fl_evs in
  let ok = off_overhead < off_budget && sv_ok && mr_ok && fl_ok in
  say "  verdict:                     %s@." (if ok then "PASS" else "FAIL");
  let scenario (name, wall, events, tape_bytes, ev_s, by_s, hooks, _) json_name
      gate_metric =
    ignore name;
    Printf.sprintf
      {|{"name":%S,"wall_ms":%.6g,"events":%d,"events_per_s":%.6g,"tape_bytes":%d,"tape_bytes_per_s":%.6g,"hooks":%d,"gate_metric":%S}|}
      json_name (wall *. 1e3) events ev_s tape_bytes by_s hooks gate_metric
  in
  write_file "BENCH_speed.json"
    (Printf.sprintf
       {|{"bench":"speed","seed":%d,"data_bytes":%d,"parts":%d,"fleet_volumes":%d,"scenarios":[%s,%s,%s],"kernels":{"crc32":%S,"crc32_ns_per_byte":%.6g,"xor_ns_per_byte":%.6g},"profiling_off_overhead_pct":%.6g,"off_budget_pct":%.6g,"profiling_on_overhead_pct":%.6g,"ratio_budget":%.6g,"pass":%b}
|}
       seed bytes parts volumes
       (scenario single "single_volume" "tape_bytes_per_s")
       (scenario multi "multi_remote" "events_per_s")
       (scenario fleet "fleet" "events_per_s")
       Crc32.kernel crc_ns xor_ns off_overhead off_budget on_overhead ratio_budget ok);
  say "  [BENCH_speed.json written]@.";
  ok

(* ------------------------------------------------------------------ *)
(* Part 11: the fleet control plane (a 1000-volume simulated night)    *)

(* Two claims from docs/FLEET.md:

   (a) the night is deterministic: two same-seed runs produce identical
       completion sets, per-volume tape CRCs and makespans, and a
       different fleet seed passes the same gates;

   (b) with every drive kept busy the night is link-limited, so
       aggregate goodput must land within 10% of the per-link
       bandwidth-delay bound (the sum of Link.model_goodput over
       hosts). *)
let run_fleet () =
  say "== Part 11: fleet night (control plane over the generalized scheduler) ==";
  let volumes = 1000 in
  let night seed =
    let spec =
      Fleet.Spec.synth ~seed ~volumes ~hosts:2 ~drives_per_host:4 ~tenants:4
        ~bytes_per_volume:20_000 ()
    in
    Fleet.run (Fleet.plan spec)
  in
  let fingerprint (status : Fleet.Status.t) =
    List.map
      (fun (c : Fleet.Status.completed) ->
        ( c.Fleet.Status.c_volume,
          c.Fleet.Status.c_tape_crc,
          c.Fleet.Status.c_tape_bytes,
          c.Fleet.Status.c_finished ))
      status.Fleet.Status.st_completed
  in
  let gate ?repeat:(repeat = false) seed =
    let r1, s1 = night seed in
    let deterministic =
      (not repeat)
      ||
      let r2, s2 = night seed in
      fingerprint s1 = fingerprint s2
      && r1.Fleet.rp_elapsed = r2.Fleet.rp_elapsed
      && r1.Fleet.rp_bytes = r2.Fleet.rp_bytes
    in
    let ratio = r1.Fleet.rp_goodput_bytes_s /. r1.Fleet.rp_link_bound_bytes_s in
    let complete =
      List.length s1.Fleet.Status.st_completed = volumes
      && r1.Fleet.rp_failed = [] && r1.Fleet.rp_unran = []
    in
    let bound_ok = ratio >= 0.9 && ratio <= 1.01 in
    say
      "  seed %4d  %4d volumes  %7.2f MB in %.1f s  goodput %.3f MB/s  \
       link bound %.3f MB/s  ratio %.4f%s"
      seed
      (List.length s1.Fleet.Status.st_completed)
      (Float.of_int r1.Fleet.rp_bytes /. 1e6)
      r1.Fleet.rp_elapsed
      (r1.Fleet.rp_goodput_bytes_s /. 1e6)
      (r1.Fleet.rp_link_bound_bytes_s /. 1e6)
      ratio
      (if repeat then
         if deterministic then "  deterministic: yes" else "  deterministic: NO"
       else "");
    (r1, ratio, deterministic, complete && bound_ok && deterministic)
  in
  let r42, ratio42, det42, ok42 = gate ~repeat:true 42 in
  let _r7, ratio7, _, ok7 = gate 7 in
  let ok = ok42 && ok7 in
  say "  verdict:                     %s@." (if ok then "PASS" else "FAIL");
  let tenants =
    String.concat ","
      (List.map
         (fun (t, g) -> Printf.sprintf {|"%s":%.6g|} t g)
         r42.Fleet.rp_tenant_goodput)
  in
  write_file "BENCH_fleet.json"
    (Printf.sprintf
       {|{"bench":"fleet","volumes":%d,"hosts":2,"drives_per_host":4,"tenants":4,"bytes_per_volume":20000,"seeds":[42,7],"elapsed_s":%.6g,"payload_bytes":%d,"goodput_bytes_s":%.6g,"link_bound_bytes_s":%.6g,"bound_ratio":%.6g,"bound_ratio_seed7":%.6g,"tenant_goodput_bytes_s":{%s},"deterministic":%b,"pass":%b}
|}
       volumes r42.Fleet.rp_elapsed r42.Fleet.rp_bytes
       r42.Fleet.rp_goodput_bytes_s r42.Fleet.rp_link_bound_bytes_s ratio42
       ratio7 tenants det42 ok);
  say "  [BENCH_fleet.json written]@.";
  ok

(* ------------------------------------------------------------------ *)
(* Part 12: the SLO/alerting plane (a storm-hit night with deadlines)  *)

(* Claims from docs/SLO.md:

   (a) the alert journal and the night report are byte-deterministic:
       two same-seed nights — storm, deadlines and all — produce
       identical bytes (and the baseline diff in CI pins the alert
       counts across versions);

   (b) the rules do their job: on a night whose every-8th volume
       carries a backup window far shorter than the makespan and whose
       drive pool is hit by a storm, window-miss alerts fire, the
       late volumes' alerts resolve on completion, and the drive-storm
       rule fires. *)
let run_slo () =
  let module Slo = Repro_obs.Slo in
  let module Analysis = Repro_obs.Analysis in
  say "== Part 12: SLO plane (deterministic alerting over a fleet night) ==";
  let volumes = 160 in
  let storm =
    { Fleet.storm_after = 40; storm_drives = 2; storm_abort_after = None;
      storm_seed = 5 }
  in
  let night seed =
    let spec =
      Fleet.Spec.synth ~seed ~volumes ~hosts:2 ~drives_per_host:4 ~tenants:4
        ~bytes_per_volume:20_000 ~deadline_every:8 ~deadline_s:0.5 ()
    in
    let p = Fleet.plan spec in
    let plane = Obs.create () in
    let report, status =
      Obs.with_armed plane (fun () -> Fleet.run ~storm p)
    in
    let verdict =
      List.find_map
        (fun (ph : Analysis.phase) ->
          if ph.Analysis.p_name = "fleet" then
            Some (Analysis.verdict_to_string ph.Analysis.p_verdict)
          else None)
        (Analysis.analyze plane).Analysis.phases
    in
    ( report,
      Slo.journal_json report.Fleet.rp_alerts,
      Fleet.night_report ?verdict p report ~status )
  in
  let count kind prefix alerts =
    List.length
      (List.filter
         (fun (a : Slo.alert) ->
           a.Slo.a_kind = kind
           &&
           let n = String.length prefix in
           String.length a.Slo.a_rule >= n && String.sub a.Slo.a_rule 0 n = prefix)
         alerts)
  in
  let gate seed =
    let report, journal, nreport = night seed in
    let _, journal2, nreport2 = night seed in
    let deterministic =
      String.equal journal journal2 && String.equal nreport nreport2
    in
    let alerts = report.Fleet.rp_alerts in
    let miss_fired = count Slo.Firing "window-miss." alerts in
    let miss_resolved = count Slo.Resolved "window-miss." alerts in
    let storm_fired = count Slo.Firing "drive-storm" alerts in
    let ok =
      deterministic && miss_fired > 0 && miss_resolved > 0 && storm_fired > 0
    in
    say
      "  seed %4d  %3d transitions  window-miss %d fired / %d resolved  \
       drive-storm %d  deterministic: %s"
      seed (List.length alerts) miss_fired miss_resolved storm_fired
      (if deterministic then "yes" else "NO");
    (journal, nreport, List.length alerts, miss_fired, miss_resolved, ok)
  in
  let j42, r42, n42, fired42, resolved42, ok42 = gate 42 in
  let _, _, n7, fired7, resolved7, ok7 = gate 7 in
  let ok = ok42 && ok7 in
  say "  verdict:                     %s@." (if ok then "PASS" else "FAIL");
  write_file "BENCH_slo.json"
    (Printf.sprintf
       {|{"bench":"slo","volumes":%d,"hosts":2,"drives_per_host":4,"tenants":4,"bytes_per_volume":20000,"deadline_every":8,"deadline_s":0.5,"storm":{"after":40,"drives":2,"seed":5},"seeds":[42,7],"alerts":%d,"window_miss_fired":%d,"window_miss_resolved":%d,"alerts_seed7":%d,"window_miss_fired_seed7":%d,"window_miss_resolved_seed7":%d,"deterministic":%b,"pass":%b}
|}
       volumes n42 fired42 resolved42 n7 fired7 resolved7 (ok42 && ok7) ok);
  write_file "BENCH_slo_alerts.json" (j42 ^ "\n");
  write_file "BENCH_slo_report.json" (r42 ^ "\n");
  say "  [BENCH_slo.json, BENCH_slo_alerts.json, BENCH_slo_report.json written]@.";
  ok

(* ------------------------------------------------------------------ *)
(* Part registry                                                       *)

(* `speed --volumes N` widens the fleet sweep (default 100). *)
let speed_volumes () =
  let rec go i =
    if i + 1 >= Array.length Sys.argv then 100
    else if Sys.argv.(i) = "--volumes" then
      match int_of_string_opt Sys.argv.(i + 1) with
      | Some n when n > 0 -> n
      | _ ->
        say "usage: main speed [--volumes N] (N > 0)";
        exit 2
    else go (i + 1)
  in
  go 2

(* Every part in `all` order: [run] returns its gate verdict (parts
   without a gate always pass), and [baselines] names the BENCH_*.json
   files it writes that must match bench/baselines/ byte for byte —
   the parts `check` runs. *)
type part = { name : string; run : unit -> bool; baselines : string list }

let ungated f () =
  f ();
  true

let parts =
  [
    {
      name = "tables";
      run = ungated run_tables;
      baselines = [ "BENCH_table2.json"; "BENCH_table4.json"; "BENCH_table5.json" ];
    };
    { name = "ablations"; run = ungated run_ablations; baselines = [] };
    { name = "micro"; run = ungated run_microbenchmarks; baselines = [] };
    { name = "faults"; run = ungated run_faults; baselines = [] };
    { name = "obs"; run = run_obs; baselines = [] };
    { name = "scaling"; run = run_scaling; baselines = [ "BENCH_scaling.json" ] };
    { name = "net"; run = run_net; baselines = [ "BENCH_net.json" ] };
    { name = "analysis"; run = run_analysis; baselines = [ "BENCH_analysis.json" ] };
    { name = "dr"; run = run_dr; baselines = [ "BENCH_dr.json" ] };
    { name = "fleet"; run = run_fleet; baselines = [ "BENCH_fleet.json" ] };
    { name = "slo"; run = run_slo; baselines = [ "BENCH_slo.json" ] };
    {
      name = "speed";
      run = (fun () -> run_speed ~volumes:(speed_volumes ()) ());
      baselines = [];
    };
  ]

let usage () =
  say "usage: main [all|check|%s [--volumes N]]"
    (String.concat "|" (List.map (fun p -> p.name) parts));
  exit 2

(* A written file against its committed baseline, reporting the first
   differing byte. *)
let matches_baseline file =
  let base = Filename.concat baseline_dir file in
  match (read_file base, read_file file) with
  | exception Sys_error e ->
    say "  %s: %s" file e;
    false
  | want, got ->
    let n = Stdlib.min (String.length want) (String.length got) in
    let rec first i = if i < n && want.[i] = got.[i] then first (i + 1) else i in
    let same = String.equal want got in
    if same then say "  %s: identical to %s" file base
    else
      say "  %s: differs from %s at byte %d (%d bytes written, %d in baseline)"
        file base (first 0) (String.length got) (String.length want);
    same

(* Run every byte-diffed part, then diff all of its files (every
   mismatch is reported, not just the first). *)
let check () =
  let results =
    List.filter_map
      (fun p ->
        if p.baselines = [] then None
        else begin
          let gate = p.run () in
          let diffs = List.map matches_baseline p.baselines in
          Some (p.name, gate, List.for_all Fun.id diffs)
        end)
      parts
  in
  say "bench check:";
  List.iter
    (fun (name, gate, same) ->
      say "  %-9s gate %s, baseline %s" name
        (if gate then "PASS" else "FAIL")
        (if same then "identical" else "DIFFERS"))
    results;
  List.for_all (fun (_, gate, same) -> gate && same) results

let () =
  let part = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  let ok =
    match part with
    | "all" ->
      let ok = List.fold_left (fun ok p -> p.run () && ok) true parts in
      say "bench: all parts complete.";
      ok
    | "check" -> check ()
    | name -> (
      match List.find_opt (fun p -> p.name = name) parts with
      | Some p -> p.run ()
      | None -> usage ())
  in
  if not ok then exit 1

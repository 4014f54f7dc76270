module Blockmap = Repro_wafl.Blockmap
module Analysis = Repro_obs.Analysis

let hline ppf width = Format.fprintf ppf "%s@." (String.make width '-')

let pct f = Printf.sprintf "%.0f%%" (100.0 *. f)

let dur s =
  if s < 120.0 then Printf.sprintf "%.1f s" s
  else if s < 7200.0 then Printf.sprintf "%.1f min" (s /. 60.0)
  else Printf.sprintf "%.2f h" (s /. 3600.0)

(* ------------------------------------------------------------------ *)

let table1 ppf =
  Format.fprintf ppf "Table 1: Block states for incremental image dump@.";
  hline ppf 72;
  Format.fprintf ppf "%-12s %-12s %s@." "Bit plane A" "Bit plane B" "Block state";
  hline ppf 72;
  List.iter
    (fun (a, b) ->
      let state = Blockmap.block_state ~in_base:a ~in_target:b in
      let desc =
        match state with
        | Blockmap.Not_in_either -> "not in either snapshot"
        | Blockmap.Newly_written -> "newly written - include in incremental"
        | Blockmap.Deleted -> "deleted, no need to include"
        | Blockmap.Unchanged -> "needed, but not changed since full dump"
      in
      let included = if Blockmap.state_included state then " [dumped]" else "" in
      Format.fprintf ppf "%-12d %-12d %s%s@." (Bool.to_int a) (Bool.to_int b) desc
        included)
    [ (false, false); (false, true); (true, false); (true, true) ];
  hline ppf 72

(* ------------------------------------------------------------------ *)

(* Paper Table 2 rates over the 188 GB home volume, derived from the
   Table 3 stage times. *)
let paper_table2 =
  [
    ("Logical Backup", 7.43, 7.03);
    ("Logical Restore", 8.00, 6.53);
    ("Physical Backup", 6.22, 8.39);
    ("Physical Restore", 5.90, 8.85);
  ]

let table2 ppf (b : Experiment.basic) =
  Format.fprintf ppf
    "Table 2: Basic backup and restore performance (1 tape drive)@.";
  Format.fprintf ppf
    "  paper: 188 GB mature volume; measured: %d MiB aged volume (%d files, %.0f%%%s@."
    (b.Experiment.cfg.Experiment.data_bytes / 1024 / 1024)
    b.Experiment.files
    (100.0 *. b.Experiment.fragmentation)
    " fragmented)";
  hline ppf 96;
  Format.fprintf ppf "%-18s | %12s %10s %10s | %12s %10s | %8s@." "Operation"
    "elapsed" "MB/s" "GB/h" "paper elaps" "paper MB/s" "ratio";
  hline ppf 96;
  let ops =
    [
      b.Experiment.logical_backup;
      b.Experiment.logical_restore;
      b.Experiment.physical_backup;
      b.Experiment.physical_restore;
    ]
  in
  List.iter
    (fun (op : Experiment.operation) ->
      let name = op.Experiment.op_name in
      let p_h, p_mbs =
        match List.assoc_opt name (List.map (fun (n, h, m) -> (n, (h, m))) paper_table2) with
        | Some (h, m) -> (h, m)
        | None -> (0.0, 0.0)
      in
      Format.fprintf ppf "%-18s | %12s %10.2f %10.1f | %10.2f h %10.2f | %8.2f@."
        name
        (dur (Experiment.elapsed op))
        (Experiment.mb_s op) (Experiment.gb_h op) p_h p_mbs
        (Experiment.mb_s op /. p_mbs))
    ops;
  hline ppf 96;
  let l = Experiment.mb_s b.Experiment.logical_backup in
  let p = Experiment.mb_s b.Experiment.physical_backup in
  Format.fprintf ppf
    "  physical/logical backup throughput: measured %.2fx (paper ~1.2x);@." (p /. l);
  let lr = Experiment.mb_s b.Experiment.logical_restore in
  let pr = Experiment.mb_s b.Experiment.physical_restore in
  Format.fprintf ppf "  physical/logical restore throughput: measured %.2fx (paper ~1.36x)@."
    (pr /. lr)

(* ------------------------------------------------------------------ *)

(* (operation, our stage label, paper stage name, paper time (s), paper CPU) *)
let paper_table3 =
  [
    ("Logical Backup", "creating snapshot", "Creating snapshot", 30.0, 0.50);
    ("Logical Backup", "mapping", "Mapping files and directories", 1200.0, 0.30);
    ("Logical Backup", "dumping directories", "Dumping directories", 1200.0, 0.20);
    ("Logical Backup", "dumping files", "Dumping files", 24300.0, 0.25);
    ("Logical Backup", "deleting snapshot", "Deleting snapshot", 35.0, 0.50);
    ("Logical Restore", "creating files", "Creating files", 7200.0, 0.30);
    ("Logical Restore", "filling in data", "Filling in data", 21600.0, 0.40);
    ("Physical Backup", "creating snapshot", "Creating snapshot", 30.0, 0.50);
    ("Physical Backup", "dumping blocks", "Dumping blocks", 22320.0, 0.05);
    ("Physical Backup", "deleting snapshot", "Deleting snapshot", 35.0, 0.50);
    ("Physical Restore", "restoring blocks", "Restoring blocks", 21240.0, 0.11);
  ]

let find_stage (op : Experiment.operation) label =
  List.find_opt
    (fun (s : Instrument.stage_summary) -> String.equal s.Instrument.stage_label label)
    op.Experiment.report.Instrument.stages

let stage_rows ppf (op : Experiment.operation) rows =
  Format.fprintf ppf "%s@." op.Experiment.op_name;
  List.iter
    (fun (_, our_label, paper_name, paper_s, paper_cpu) ->
      match find_stage op our_label with
      | Some s ->
        Format.fprintf ppf "  %-32s | %10s %7s | %10s %7s@." paper_name
          (dur (Instrument.stage_elapsed s))
          (pct (Experiment.stage_cpu s))
          (dur paper_s) (pct paper_cpu)
      | None ->
        Format.fprintf ppf "  %-32s | %10s %7s | %10s %7s@." paper_name "-" "-"
          (dur paper_s) (pct paper_cpu))
    rows

let table3 ppf (b : Experiment.basic) =
  Format.fprintf ppf "Table 3: Dump and restore details (1 tape drive)@.";
  hline ppf 88;
  Format.fprintf ppf "  %-32s | %10s %7s | %10s %7s@." "Stage" "elapsed" "CPU"
    "paper" "CPU";
  hline ppf 88;
  List.iter
    (fun (op : Experiment.operation) ->
      let rows =
        List.filter (fun (o, _, _, _, _) -> String.equal o op.Experiment.op_name)
          paper_table3
      in
      stage_rows ppf op rows)
    [
      b.Experiment.logical_backup;
      b.Experiment.logical_restore;
      b.Experiment.physical_backup;
      b.Experiment.physical_restore;
    ];
  hline ppf 88;
  (* the paper's headline CPU comparison *)
  let cpu_of op label =
    match find_stage op label with Some s -> Experiment.stage_cpu s | None -> 0.0
  in
  let ld = cpu_of b.Experiment.logical_backup "dumping files" in
  let pd = cpu_of b.Experiment.physical_backup "dumping blocks" in
  let lr = cpu_of b.Experiment.logical_restore "filling in data" in
  let pr = cpu_of b.Experiment.physical_restore "restoring blocks" in
  Format.fprintf ppf
    "  logical dump CPU / physical dump CPU: measured %.1fx (paper 5x)@."
    (ld /. Float.max pd 1e-9);
  Format.fprintf ppf
    "  logical restore CPU / physical restore CPU: measured %.1fx (paper >3x)@."
    (lr /. Float.max pr 1e-9)

(* ------------------------------------------------------------------ *)

(* Paper Tables 4 and 5: per-stage elapsed and CPU on 2 and 4 drives. *)
let paper_parallel tapes =
  match tapes with
  | 2 ->
    [
      ("Logical Backup", "mapping", "Mapping", 900.0, 0.50);
      ("Logical Backup", "dumping directories", "Directories", 900.0, 0.40);
      ("Logical Backup", "dumping files", "Files", 14400.0, 0.50);
      ("Logical Restore", "creating files", "Creating files", 4500.0, 0.53);
      ("Logical Restore", "filling in data", "Filling in data", 12600.0, 0.75);
      ("Physical Backup", "dumping blocks", "Dumping blocks", 11700.0, 0.12);
      ("Physical Restore", "restoring blocks", "Restoring blocks", 11160.0, 0.21);
    ]
  | 4 ->
    [
      ("Logical Backup", "mapping", "Mapping", 300.0, 0.90);
      ("Logical Backup", "dumping directories", "Directories", 420.0, 0.90);
      ("Logical Backup", "dumping files", "Files", 9000.0, 0.90);
      ("Logical Restore", "creating files", "Creating files", 2700.0, 0.53);
      ("Logical Restore", "filling in data", "Filling in data", 11700.0, 1.00);
      ("Physical Backup", "dumping blocks", "Dumping blocks", 6120.0, 0.30);
      ("Physical Restore", "restoring blocks", "Restoring blocks", 5868.0, 0.41);
    ]
  | _ -> []

let table45 ppf (b : Experiment.basic) =
  let tapes = b.Experiment.tapes in
  let no = if tapes = 2 then 4 else 5 in
  Format.fprintf ppf
    "Table %d: Parallel backup and restore performance on %d tape drives@." no tapes;
  hline ppf 110;
  Format.fprintf ppf "  %-32s | %10s %6s %9s %9s | %10s %6s@." "Stage" "elapsed"
    "CPU" "disk MB/s" "tape MB/s" "paper" "CPU";
  hline ppf 110;
  let rows = paper_parallel tapes in
  List.iter
    (fun (op : Experiment.operation) ->
      let mine =
        List.filter (fun (o, _, _, _, _) -> String.equal o op.Experiment.op_name) rows
      in
      if mine <> [] then begin
        Format.fprintf ppf "%s@." op.Experiment.op_name;
        List.iter
          (fun (_, our_label, paper_name, paper_s, paper_cpu) ->
            match find_stage op our_label with
            | Some s ->
              Format.fprintf ppf "  %-32s | %10s %6s %9.1f %9.1f | %10s %6s@."
                paper_name
                (dur (Instrument.stage_elapsed s))
                (pct (Experiment.stage_cpu s))
                (Experiment.stage_rate_prefix s "disk:")
                (Experiment.stage_rate_prefix s "tape:")
                (dur paper_s) (pct paper_cpu)
            | None -> ())
          mine
      end)
    [
      b.Experiment.logical_backup;
      b.Experiment.logical_restore;
      b.Experiment.physical_backup;
      b.Experiment.physical_restore;
    ];
  hline ppf 110

(* ------------------------------------------------------------------ *)

let summary ppf (runs : Experiment.basic list) =
  Format.fprintf ppf "Scaling summary (paper 5.2/5.3)@.";
  hline ppf 100;
  Format.fprintf ppf "%-6s | %-16s %12s %12s | %-16s %12s %12s@." "tapes"
    "logical backup" "GB/h" "GB/h/tape" "physical backup" "GB/h" "GB/h/tape";
  hline ppf 100;
  List.iter
    (fun (b : Experiment.basic) ->
      let l = b.Experiment.logical_backup and p = b.Experiment.physical_backup in
      Format.fprintf ppf "%-6d | %-16s %12.1f %12.1f | %-16s %12.1f %12.1f@."
        b.Experiment.tapes
        (dur (Experiment.elapsed l))
        (Experiment.gb_h l)
        (Experiment.gb_h l /. Float.of_int b.Experiment.tapes)
        (dur (Experiment.elapsed p))
        (Experiment.gb_h p)
        (Experiment.gb_h p /. Float.of_int b.Experiment.tapes))
    runs;
  hline ppf 100;
  Format.fprintf ppf
    "  paper at 4 tapes: logical 69.6 GB/h (17.4 per tape), physical 110 GB/h (27.6 per tape)@.";
  match List.rev runs with
  | last :: _ when last.Experiment.tapes >= 4 ->
    Format.fprintf ppf
      "  measured at %d tapes: logical %.1f GB/h, physical %.1f GB/h (physical/logical %.2fx; paper 1.58x)@."
      last.Experiment.tapes
      (Experiment.gb_h last.Experiment.logical_backup)
      (Experiment.gb_h last.Experiment.physical_backup)
      (Experiment.gb_h last.Experiment.physical_backup
      /. Experiment.gb_h last.Experiment.logical_backup)
  | _ -> ()

let scaling_chart ppf (runs : Experiment.basic list) =
  (* ASCII per-tape throughput chart: flat bars = linear scaling. *)
  let max_rate =
    List.fold_left
      (fun acc b ->
        Float.max acc
          (Float.max
             (Experiment.gb_h b.Experiment.logical_backup)
             (Experiment.gb_h b.Experiment.physical_backup)))
      1.0 runs
  in
  let bar v = String.make (Float.to_int (40.0 *. v /. max_rate)) '#' in
  Format.fprintf ppf "Aggregate backup throughput vs tape drives (GB/h)@.";
  List.iter
    (fun (b : Experiment.basic) ->
      let l = Experiment.gb_h b.Experiment.logical_backup in
      let p = Experiment.gb_h b.Experiment.physical_backup in
      Format.fprintf ppf "  %d tape%s logical  %6.1f |%s@." b.Experiment.tapes
        (if b.Experiment.tapes = 1 then " " else "s") l (bar l);
      Format.fprintf ppf "  %d tape%s physical %6.1f |%s@." b.Experiment.tapes
        (if b.Experiment.tapes = 1 then " " else "s") p (bar p))
    runs

let faults ppf ~plane ~engine =
  let module F = Repro_fault.Fault in
  Format.fprintf ppf "Fault drill report@.";
  hline ppf 72;
  Format.fprintf ppf "  injected %d | repairs %d | retries %d | skips %d@."
    (F.injected plane) (F.repairs plane) (F.retries plane) (F.skips plane);
  Format.fprintf ppf "  RAID media repairs (reconstruct + rewrite in place): %d@."
    (Repro_block.Volume.media_repairs (Repro_wafl.Fs.volume (Engine.fs engine)));
  let cat = Engine.catalog engine in
  List.iter
    (fun (e : Catalog.entry) ->
      if e.Catalog.degraded > 0 then
        Format.fprintf ppf
          "  degraded backup #%d (%a %S level %d): %d unreadable file%s skipped@."
          e.Catalog.id Strategy.pp e.Catalog.strategy e.Catalog.label e.Catalog.level
          e.Catalog.degraded
          (if e.Catalog.degraded = 1 then "" else "s"))
    (Catalog.entries cat);
  List.iter
    (fun (ck : Catalog.checkpoint) ->
      Format.fprintf ppf "  in-flight: %a %S level %d, %d/%d parts done (resumable)@."
        Strategy.pp ck.Catalog.ck_strategy ck.Catalog.ck_label ck.Catalog.ck_level
        (List.length ck.Catalog.ck_done)
        ck.Catalog.ck_parts)
    (Catalog.checkpoints cat);
  Format.fprintf ppf "  journal:@.";
  List.iter (fun l -> Format.fprintf ppf "    %s@." l) (F.journal_lines plane);
  hline ppf 72

let concurrent ppf (c : Experiment.concurrent) =
  Format.fprintf ppf "Concurrent volume dumps (paper 5.1)@.";
  hline ppf 80;
  Format.fprintf ppf "  home solo: %s    rlse solo: %s@."
    (dur (Experiment.elapsed c.Experiment.home_solo))
    (dur (Experiment.elapsed c.Experiment.rlse_solo));
  Format.fprintf ppf "  concurrent: home %s, rlse %s@."
    (dur c.Experiment.home_combined_elapsed)
    (dur c.Experiment.rlse_combined_elapsed);
  let slowdown =
    c.Experiment.home_combined_elapsed
    /. Float.max (Experiment.elapsed c.Experiment.home_solo) 1e-9
  in
  Format.fprintf ppf
    "  home slowdown when concurrent: %.3fx (paper: none — 'executed in exactly the same amount of time')@."
    slowdown;
  hline ppf 80

(* The trace-analysis verdict: which resource gated each phase, and the
   critical path the elapsed time flowed through. Rendered from an
   Analysis.report so `backupctl backup --analysis-out` and tests share
   the bytes. *)
let bottleneck ppf (r : Analysis.report) =
  Format.fprintf ppf "Trace analysis@.";
  hline ppf 72;
  if r.Analysis.phases = [] then
    Format.fprintf ppf
      "  no scheduler timelines recorded (run under an armed obs plane)@.";
  List.iter
    (fun (p : Analysis.phase) ->
      Format.fprintf ppf "phase %s: %s (elapsed %.2f s)@." p.Analysis.p_name
        (String.uppercase_ascii (Analysis.verdict_to_string p.Analysis.p_verdict))
        p.Analysis.p_elapsed;
      Format.fprintf ppf "  %-10s %10s %10s@." "resource" "mean busy" "peak busy";
      List.iter
        (fun (u : Analysis.usage) ->
          Format.fprintf ppf "  %-10s %10.2f %10.2f@." u.Analysis.u_class
            u.Analysis.u_mean u.Analysis.u_peak)
        p.Analysis.p_usage;
      match p.Analysis.p_path with
      | None -> ()
      | Some cp ->
        let covered =
          List.fold_left
            (fun acc (s : Analysis.step) ->
              acc +. (s.Analysis.s_finish -. s.Analysis.s_start))
            0.0 cp.Analysis.cp_steps
        in
        Format.fprintf ppf "  critical path: %d part%s, %.0f%% of elapsed@."
          (List.length cp.Analysis.cp_steps)
          (if List.length cp.Analysis.cp_steps = 1 then "" else "s")
          (if p.Analysis.p_elapsed > 0.0 then
             100.0 *. covered /. p.Analysis.p_elapsed
           else 0.0);
        List.iter
          (fun (s : Analysis.step) ->
            let secs =
              List.filter_map
                (fun (cls, v) ->
                  if v > 0.0 then Some (Printf.sprintf "%s %.2f s" cls v)
                  else None)
                s.Analysis.s_seconds
            in
            Format.fprintf ppf "    part %d on drive %d: %8.2f .. %8.2f s  [%s]@."
              s.Analysis.s_part s.Analysis.s_drive s.Analysis.s_start
              s.Analysis.s_finish (String.concat ", " secs))
          cp.Analysis.cp_steps;
        Format.fprintf ppf "  critical-path resource seconds (%% of elapsed):@.";
        List.iter
          (fun ((cls, v), (_, pct)) ->
            if v > 0.0 then
              Format.fprintf ppf "    %-10s %10.2f s  (%.0f%%)@." cls v pct)
          (List.combine cp.Analysis.cp_seconds cp.Analysis.cp_pct))
    r.Analysis.phases;
  hline ppf 72

(* The paper's headline result as a sweep: how each strategy scales as
   tape drives are added (sections 5.2/5.3).

   Logical dump cannot split one stream across drives (the format is
   strictly linear), so the volume is split into quota trees dumped in
   parallel — and the random file-order reads plus CPU eventually saturate.
   Physical dump just deals blocks to more drives and rides sequential
   disk bandwidth.

   Part two runs the same sweep through the engine's own scheduler (docs/SCALING.md): Engine.backup_job with a ~drives pool schedules the
   parts concurrently over the stackers, and Engine.last_stats reports
   the makespan and how busy each drive was.

   Run with: dune exec examples/parallel_scaling.exe
   (takes a minute or two: it builds and backs up six volumes) *)

module Experiment = Repro_backup.Experiment
module Engine = Repro_backup.Engine
module Strategy = Repro_backup.Strategy
module Scheduler = Repro_backup.Scheduler
module Volume = Repro_block.Volume
module Library = Repro_tape.Library
module Fs = Repro_wafl.Fs
module Generator = Repro_workload.Generator

let () =
  let cfg = { (Experiment.quick_config ()) with Experiment.data_bytes = 16 * 1024 * 1024 } in
  Format.printf "sweeping tape drives on a %d MiB aged volume...@.@."
    (cfg.Experiment.data_bytes / 1024 / 1024);
  Format.printf "%-6s | %-28s | %-28s | %s@." "tapes" "logical backup"
    "physical backup" "physical advantage";
  Format.printf "%s@." (String.make 100 '-');
  let runs =
    List.map
      (fun tapes ->
        let b = Experiment.run_basic ~tapes cfg in
        let l = b.Experiment.logical_backup and p = b.Experiment.physical_backup in
        Format.printf
          "%-6d | %6.1f s %6.1f GB/h (%4.1f/t) | %6.1f s %6.1f GB/h (%4.1f/t) | %.2fx@."
          tapes (Experiment.elapsed l) (Experiment.gb_h l)
          (Experiment.gb_h l /. Float.of_int tapes)
          (Experiment.elapsed p) (Experiment.gb_h p)
          (Experiment.gb_h p /. Float.of_int tapes)
          (Experiment.gb_h p /. Experiment.gb_h l);
        b)
      [ 1; 2; 4 ]
  in
  Format.printf "%s@.@." (String.make 100 '-');
  let first = List.hd runs and last = List.nth runs 2 in
  let speedup op_of =
    Experiment.gb_h (op_of last) /. Experiment.gb_h (op_of first)
  in
  Format.printf
    "1 -> 4 drives: logical speeds up %.2fx, physical %.2fx (paper: 2.75x vs 3.6x).@."
    (speedup (fun b -> b.Experiment.logical_backup))
    (speedup (fun b -> b.Experiment.physical_backup));
  Format.printf
    "\"the ability of physical backup/restore to effectively use the high bandwidths@.";
  Format.printf
    " achievable when streaming data to and from disk argue that it should be the@.";
  Format.printf " workhorse technology\" — paper, section 7.@.@.";

  (* Part two: the same claim from the engine's drive-pool scheduler. *)
  Format.printf "now through Engine.backup_job with a drive pool (4-part jobs, near-full volume):@.@.";
  let engine_elapsed strategy k =
    let vol = Volume.create ~label:"sweep" (Volume.small_geometry ~data_blocks:2048) in
    let fs = Fs.mkfs vol in
    ignore (Generator.populate ~fs ~root:"/data" ~total_bytes:6_000_000 ());
    let libs =
      List.init 4 (fun i -> Library.create ~slots:16 ~label:(Printf.sprintf "S%d" i) ())
    in
    let eng = Engine.create ~fs ~libraries:libs () in
    let drives = List.init k Fun.id in
    (match strategy with
    | Strategy.Logical ->
      ignore (Engine.backup_job eng (Engine.Job.make ~strategy ~subtree:"/data" ~parts:4 ~drives ()))
    | Strategy.Physical ->
      ignore (Engine.backup_job eng (Engine.Job.make ~strategy ~label:"vol" ~parts:4 ~drives ())));
    match Engine.last_stats eng with
    | Some st ->
      let util =
        String.concat " "
          (List.map
             (fun (slot, busy, _) ->
               match slot with
               | Scheduler.Resource_id.Drive d ->
                 Printf.sprintf "d%d:%2.0f%%" d (100.0 *. busy /. st.Scheduler.p_elapsed)
               | _ -> assert false)
             st.Scheduler.p_slots)
      in
      (st.Scheduler.p_elapsed, util)
    | None -> (0.0, "")
  in
  List.iter
    (fun strategy ->
      let e1, _ = engine_elapsed strategy 1 in
      List.iter
        (fun k ->
          let e, util = engine_elapsed strategy k in
          Format.printf "  %-8s %d drive%s: %6.2f s  (%.2fx)  drive utilization: %s@."
            (Strategy.to_string strategy) k
            (if k = 1 then " " else "s")
            e (e1 /. e) util)
        [ 1; 2; 4 ];
      Format.printf "@.")
    [ Strategy.Logical; Strategy.Physical ];
  Format.printf
    "physical rides its private tape drives; logical hits the shared source array@.";
  Format.printf "at ~2.75 drives' worth of bandwidth — the Table 4/5 asymmetry.@."

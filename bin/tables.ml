(* Regenerate every table in the paper's evaluation (section 5).

   Usage: tables [--quick] [--data-mib N] [--skip-parallel] *)

module Experiment = Repro_backup.Experiment
module Report = Repro_backup.Report

open Cmdliner

let run quick data_mib skip_parallel =
  let base = if quick then Experiment.quick_config () else Experiment.default_config () in
  let cfg =
    match data_mib with
    | Some mib -> { base with Experiment.data_bytes = mib * 1024 * 1024 }
    | None -> base
  in
  let ppf = Format.std_formatter in
  Format.fprintf ppf
    "Logical vs. Physical File System Backup (OSDI '99) — reproduction@.";
  Format.fprintf ppf
    "volume: %d MiB data, %d raid groups x %d disks, %s@.@."
    (cfg.Experiment.data_bytes / 1024 / 1024)
    Experiment.groups Experiment.disks_per_group
    (if cfg.Experiment.aged then "aged (mature)" else "fresh");
  Report.table1 ppf;
  Format.fprintf ppf "@.";
  Format.fprintf ppf "[running basic experiment, 1 tape drive...]@.%!";
  let basic = Experiment.run_basic ~tapes:1 cfg in
  Report.table2 ppf basic;
  Format.fprintf ppf "@.";
  Report.table3 ppf basic;
  Format.fprintf ppf "@.";
  if not skip_parallel then begin
    Format.fprintf ppf "[running parallel experiment, 2 tape drives...]@.%!";
    let par2 = Experiment.run_basic ~tapes:2 cfg in
    Report.table45 ppf par2;
    Format.fprintf ppf "@.";
    Format.fprintf ppf "[running parallel experiment, 4 tape drives...]@.%!";
    let par4 = Experiment.run_basic ~tapes:4 cfg in
    Report.table45 ppf par4;
    Format.fprintf ppf "@.";
    Report.summary ppf [ basic; par2; par4 ];
    Format.fprintf ppf "@.";
    Report.scaling_chart ppf [ basic; par2; par4 ];
    Format.fprintf ppf "@."
  end;
  Format.fprintf ppf "[running concurrent-volumes experiment...]@.%!";
  let conc = Experiment.run_concurrent cfg in
  Report.concurrent ppf conc;
  Format.fprintf ppf "@.done.@."

let quick =
  Arg.(value & flag & info [ "quick" ] ~doc:"Small volume, light churn (smoke run).")

let data_mib =
  Arg.(value & opt (some int) None & info [ "data-mib" ] ~doc:"User data per volume, MiB.")

let skip_parallel =
  Arg.(value & flag & info [ "skip-parallel" ] ~doc:"Only run the single-tape tables.")

let cmd =
  Cmd.v
    (Cmd.info "tables" ~doc:"Reproduce the paper's evaluation tables")
    Term.(const run $ quick $ data_mib $ skip_parallel)

let () = exit (Cmd.eval cmd)

(** The paper's evaluation (§5), re-run.

    Each experiment builds a mature synthetic volume, runs the {e real}
    dump/restore implementations while measuring per-stage resource
    demands, and overlaps the streams on the fluid scheduler
    ({!Instrument.run}) to obtain elapsed times, throughputs and
    utilizations. Volumes are scaled down from the paper's 188 GB (rates
    and ratios, not absolute sizes, are the reproduction target); device
    and CPU parameters are period-calibrated (DLT-7000 tape, ~10 MB/s
    disks, 500 MHz CPU).

    - {!run_basic} with [~tapes:1] produces Tables 2 and 3;
    - [~tapes:2] and [~tapes:4] produce Tables 4 and 5;
    - {!run_concurrent} reproduces the §5.1 claim that concurrent dumps of
      two volumes do not interfere. *)

type config = {
  data_bytes : int;  (** user data per volume *)
  seed : int;
  aged : bool;  (** churn the volume into a mature, fragmented state *)
  churn_rounds : int;
  costs : Repro_sim.Cost.t;
  profile : Repro_workload.Generator.profile;
      (** file-size/fan-out profile; the default median is chosen so
          files-per-megabyte lands near the paper's volume, keeping
          per-file costs comparable at small scale *)
}

val groups : int
(** RAID groups per volume ("home" has 3). *)

val disks_per_group : int
(** Disks per RAID group, parity included (31 disks / 3 groups ≈ 11). *)

val default_config : unit -> config
(** 64 MiB of data, aged, home-like geometry. *)

val quick_config : unit -> config
(** 8 MiB and light churn — for tests and smoke runs. *)

type operation = {
  op_name : string;
  report : Instrument.report;
  payload_bytes : int;  (** user data moved *)
  stream_count : int;
}

val elapsed : operation -> float
val mb_s : operation -> float
val gb_h : operation -> float

type basic = {
  cfg : config;
  tapes : int;
  files : int;
  fragmentation : float;
  logical_backup : operation;
  logical_restore : operation;
  physical_backup : operation;
  physical_restore : operation;
}

val run_basic : ?tapes:int -> config -> basic
(** Runs all four operations end to end (the restores are verified against
    the source tree; a mismatch raises [Failure]). *)

type concurrent = {
  home_solo : operation;
  rlse_solo : operation;
  combined : Instrument.report;
  home_combined_elapsed : float;
  rlse_combined_elapsed : float;
}

val run_concurrent : config -> concurrent
(** Two volumes (the second ⅔ the size, like rlse vs home), dumped
    concurrently to separate drives; compares against solo runs. *)

(** {1 Stage helpers for reports} *)

val stage_cpu : Instrument.stage_summary -> float
val stage_rate_prefix : Instrument.stage_summary -> string -> float
(** MB/s through all resources whose name has the given prefix ("disk:" /
    "tape:"). *)

(** Paper-vs-measured table rendering.

    One printer per table in the paper's evaluation. Paper columns are the
    published values (Table 2's throughput cells, lost in our source copy
    of the paper, are derived from Table 3's stage times over the 188 GB
    home volume). Measured columns come from an {!Experiment} run on a
    scaled-down volume — rates and ratios are the comparison, not absolute
    elapsed times. *)

val table1 : Format.formatter -> unit
(** The block-state truth table, checked against the implementation. *)

val table2 : Format.formatter -> Experiment.basic -> unit
val table3 : Format.formatter -> Experiment.basic -> unit

val table45 : Format.formatter -> Experiment.basic -> unit
(** Render Table 4 (run with [~tapes:2]) or Table 5 ([~tapes:4]). *)

val summary : Format.formatter -> Experiment.basic list -> unit
(** The §5.2/§5.3 scaling summary across tape counts. *)

val scaling_chart : Format.formatter -> Experiment.basic list -> unit
(** An ASCII bar chart of aggregate throughput vs tape count: the visual
    form of the paper's headline result. *)

val concurrent : Format.formatter -> Experiment.concurrent -> unit
(** The §5.1 concurrent-volumes claim. *)

val faults :
  Format.formatter ->
  plane:Repro_fault.Fault.plane ->
  engine:Engine.t ->
  unit
(** After a fault drill: injected/repair/retry/skip counts (folded from
    the fault journal), RAID media repairs (read from the volume),
    degraded catalog entries, resumable in-flight checkpoints, and the
    journal itself. *)

val bottleneck : Format.formatter -> Repro_obs.Analysis.report -> unit
(** The trace-analysis verdict ([backupctl backup --analysis-out]): per phase, the
    limiting resource class with its mean/peak busy fractions, and the
    critical path — which parts the elapsed time flowed through and the
    per-resource seconds along it. See [docs/OBSERVABILITY.md] §7. *)

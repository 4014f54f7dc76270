(** Stage-level measurement and the fluid stream runner.

    The experiment harness runs each backup stream's real code serially
    while snapshotting resource counters (CPU, disk array, tape drive)
    around every stage the dump/restore implementations announce through
    their [observe] hooks. {!run} overlaps the resulting per-stage demand
    vectors on the engine's max-min scheduler ({!Scheduler.run_tasks}):
    within a stage the filer is pipelined, so a lone stage takes the
    {e maximum} of its per-resource demands, and concurrent streams share
    resources fairly — the paper's "the tape device is the bottleneck". The
    result is the elapsed-time and utilization numbers of Tables 2–5. *)

type demand = { resource : Repro_sim.Resource.t; work : float; bytes : int }
(** [work] is seconds of service needed from [resource] (keyed by its
    name); [bytes] is payload volume attributed to the resource for MB/s
    reporting. *)

val demand : ?bytes:int -> Repro_sim.Resource.t -> float -> demand
(** Raises [Invalid_argument] on negative work. *)

type stage = { label : string; demands : demand list }

val stage : string -> demand list -> stage

type stream = { stream_label : string; stages : stage list }
(** One tape drive's sequence of stages ("mapping", "dumping files", ...). *)

type stage_summary = {
  stage_label : string;
  start : float;
  finish : float;
  busy : (string * float) list;
      (** per-resource busy seconds of every stage with this label,
          summed over all streams *)
  stage_bytes : (string * int) list;
}

type report = {
  elapsed : float;
  stages : stage_summary list;
  stream_finish : (string * float) list;
      (** per stream, in input order: completion time of its last stage *)
}

val collect :
  resources:Repro_sim.Resource.t list ->
  ((string -> (unit -> unit) -> unit) -> 'a) ->
  'a * stage list
(** [collect ~resources f] calls [f observe]; every [observe label work]
    executed inside becomes one {!stage} whose demands are the busy-time
    and byte deltas each resource accumulated during [work]. Stages with
    no measurable demand are kept (they complete effectively instantly). *)

val add_demand : stage list -> stage:string -> demand -> stage list
(** Append a synthetic demand (e.g. per-operation serialization latency) to
    the named stage. *)

val scale_stages : stage list -> float -> stage list
(** Multiply every demand (work and bytes) — used to split one measured
    physical stream into [n] symmetric parallel streams. *)

val retarget :
  stage list -> from_prefix:string -> to_resource:Repro_sim.Resource.t -> stage list
(** Re-point demands whose resource name starts with [from_prefix] (e.g.
    ["tape:"]) at a different resource — gives each synthetic parallel
    stream its own tape drive. *)

val run : stream list -> report
(** Simulate all streams to completion from time 0: each stream is an
    exclusive slot of {!Scheduler.run_tasks} and each of its stages a task
    queued behind the previous one. Stage summaries are aggregated by
    label (parallel streams running "dumping files" on four tapes produce
    a single "dumping files" row, as in Tables 4 and 5) and listed in
    order of first start. Resource counters are not charged. *)

val stage_elapsed : stage_summary -> float

val stage_utilization : stage_summary -> string -> float
(** [stage_utilization s r] is busy seconds of resource [r] during [s]
    divided by the stage window. *)

(** Multi-resource scheduling of jobs on simulated time.

    The scheduler runs jobs {e concurrently over a pool of exclusive
    slots} on the discrete-event engine: each job's real side effects
    (tape records, catalog updates) execute synchronously at admission
    time — so per-drive tape content is byte-identical to running the
    same jobs serially — while its {e duration} is simulated from a
    demand vector shared with all in-flight jobs under max-min fairness
    ({!fair_share}). That split is what makes the differential
    "concurrency changed timing, not content" property hold by
    construction, and what reproduces the paper's Table 4/5
    asymmetry: the parts of a logical dump all contend for the source
    disks, the parts of an image dump do not.

    {!run_tasks} is the one entry point. Tasks declare {e typed}
    resource requirements — claims on exclusive slots ({!Resource_id.t}:
    a drive slot, any drive of a library) plus a fluid demand vector
    (link shares, source-disk membership, tenant budgets) — and may carry
    a ready time (a backup window opening). Three callers instantiate it:
    the engine's backup and restore parts ([Drive] slots: [One_of] the
    pool for a backup part, [Exactly] the drive that wrote it for a
    restore part), the fleet's volumes, and the paper-table streams
    ({!Instrument.run}: one exclusive slot per stream, one task per
    stage).

    The scheduler runs on its own {!Repro_sim.Engine} instance and never
    touches the caller's clock; elapsed simulated time is reported in
    {!pool_stats}. *)

module Resource_id = Repro_sim.Resource_id
(** Typed resource identifiers; see {!Repro_sim.Resource_id}. *)

type demand = { key : string; work : float }
(** [work] seconds of service from the unit-capacity resource named [key].
    Keys are the rendered form of {!Resource_id.t}; build them with
    {!demand} rather than formatting strings by hand. *)

val demand : Resource_id.t -> float -> demand
(** [demand rid work] is [{ key = Resource_id.to_key rid; work }]. *)

val demand_of_resource : Repro_sim.Resource.t -> float -> demand
(** A demand on a measured resource, keyed by its established name
    (already in {!Resource_id} key format). *)

val fair_share : (string * float) list array -> float array
(** The solver behind {!run_tasks}: max-min fair progress rates (task
    fractions per second) by progressive filling over [(key, work)]
    demand vectors on unit-capacity resources, scanned in sorted key
    order. All-zero vectors get a very large finite rate. *)

(** {1 The generalized multi-resource scheduler} *)

type slot = Resource_id.t
(** An exclusive resource: held by at most one task at a time. *)

type claim =
  | Exactly of slot  (** this very slot (a restore replaying its drive) *)
  | One_of of slot list  (** any one slot of the set (a drive pool) *)

type 'a task = {
  t_label : string;
  t_ready : float;
      (** earliest admission time (schedule-local seconds): a backup
          window opening. [0.0] = immediately. *)
  t_claims : claim list;
      (** exclusive slots the task must hold, granted greedily in claim
          order, all-or-nothing *)
  t_run : now:float -> granted:slot list -> 'a * demand list;
      (** Performs the task's real work holding [granted] (one slot per
          claim, in claim order) and returns its result plus the fluid
          demand vector governing its simulated duration. Executed
          exactly once, at admission. *)
}

val task :
  ?ready:float ->
  label:string ->
  claims:claim list ->
  (now:float -> granted:slot list -> 'a * demand list) ->
  'a task

type 'a grant = {
  g_value : 'a;
  g_slots : slot list;  (** the slots held, in claim order *)
  g_started : float;  (** simulated admission time *)
  g_finished : float;  (** simulated completion time *)
}

type 'a task_outcome =
  | Completed of 'a grant
  | Errored of { error : exn; slots : slot list; at : float }
  | Unran
      (** Never admitted: a fatal failure elsewhere aborted the run, or
          every slot a claim could use died. *)

type pool_stats = {
  p_elapsed : float;  (** simulated makespan of the whole run *)
  p_slots : (slot * float * int) list;
      (** per slot, in pool order: busy seconds summed over its tasks,
          task count *)
}

val run_tasks :
  ?fatal:(exn -> bool) ->
  ?max_active:int ->
  ?on_complete:(int -> 'a grant -> unit) ->
  ?on_interval:(t0:float -> t1:float -> (string * float) list -> unit) ->
  slots:slot list ->
  'a task list ->
  'a task_outcome array * pool_stats
(** Run [tasks] over the slot pool. The waiting queue is scanned in list
    order at every admission opportunity (t = 0, each completion, and
    each distinct ready time) — so list order is priority order, and
    preemption happens at task boundaries: when a window opens, its task
    takes the next compatible free slot ahead of everything behind it in
    the queue. A task whose ready time has not arrived is skipped, not
    removed. [max_active] caps in-flight tasks (default: pool size).
    A task whose demand vector is empty (every work at or below 1e-9)
    takes no time: it completes at its admission, releasing its slots at
    once.

    [on_complete i g] fires at [g.g_finished] in simulated-time order.
    [on_interval ~t0 ~t1 utils] fires once per inter-event interval with
    each resource key's utilization over [[t0, t1)] — the hook
    {!Repro_obs.Analysis.sampler} resamples into timelines.

    Failure during [t_run]: if [fatal e] every granted slot is removed
    from the pool and the remaining queue drains on the survivors — a
    dead slot loses only its in-flight task. Any other exception aborts
    admissions; in-flight tasks still complete, the rest are [Unran].
    The run itself never raises; callers inspect the outcome array.

    Raises [Invalid_argument] on an empty or duplicated slot pool. *)

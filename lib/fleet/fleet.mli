(** Fleet-scale control plane: one backup night across many filers.

    The fleet planner takes a declarative spec — volumes with sizes,
    priorities and backup windows, tenants with bandwidth budgets, tape
    hosts with drive counts and link parameters — and drives one
    {!Repro_backup.Engine} job per volume through the generalized
    multi-resource scheduler ({!Repro_backup.Scheduler.run_tasks}).

    Execution follows the library's execute-at-admission discipline:
    each volume's filer is built deterministically from its seed at
    admission time and its dump runs synchronously, so per-volume tape
    bytes are a pure function of the volume spec — independent of
    admission order, concurrency, fault storms, or restarts. Only the
    {e duration} is simulated: a volume's fluid demand vector charges
    its granted drive slot, its host's link (at the
    {!Repro_net.Link.model_goodput} rate), its filer's source disks,
    and its tenant's bandwidth budget, all shared max-min fairly with
    every in-flight volume.

    Completed volumes are checkpointed in a fleet catalog
    ({!Status.t}, [FLT1]); a night interrupted by a fault storm resumes
    from the catalog, re-running exactly the unfinished volumes. *)

module Scheduler = Repro_backup.Scheduler

(** {1 The fleet spec} *)

module Spec : sig
  type host = {
    h_name : string;
    h_drives : int;
    h_link : Repro_net.Link.params;
        (** the filer-to-tape-server wire all the host's streams share *)
  }

  type tenant = {
    t_name : string;
    t_budget_bytes_s : float;  (** aggregate bandwidth budget *)
  }

  type volume = {
    v_name : string;
    v_host : string;  (** tape host the volume backs up to *)
    v_tenant : string;
    v_filer : string;
        (** source filer; volumes sharing a filer contend for its disks *)
    v_bytes : int;  (** workload size the filer is populated to *)
    v_priority : int;  (** smaller runs earlier *)
    v_window_s : float;  (** backup window opening (schedule seconds) *)
    v_deadline_s : float;
        (** backup window close (schedule seconds); 0 = none. A volume
            not finished by its deadline is a window miss: the built-in
            SLO rule fires and resolves on (late) completion. *)
    v_seed : int;  (** workload seed; the volume's content function *)
  }

  type t = {
    s_seed : int;
    s_hosts : host list;
    s_tenants : tenant list;
    s_volumes : volume list;
  }

  type error =
    | Parse of { line : int; msg : string }
    | Empty_fleet
    | Duplicate_name of string
    | Unknown_host of { volume : string; host : string }
    | Unknown_tenant of { volume : string; tenant : string }
    | Bad_value of { name : string; field : string }
    | Bad_name of { kind : string; name : string }
        (** A host/tenant/volume/filer name with characters outside
            [A-Za-z0-9_-]: names are embedded in metric paths
            ([fleet.tenant.<name>.goodput_bytes_s]), where a dot would
            make the path ambiguous. *)

  exception Invalid of error

  val error_message : error -> string

  val make :
    ?seed:int -> hosts:host list -> tenants:tenant list -> volume list -> t
  (** Validates cross-references, positivity and that every number is
      finite; raises {!Invalid}. *)

  val synth :
    ?seed:int ->
    ?hosts:int ->
    ?drives_per_host:int ->
    ?tenants:int ->
    ?bytes_per_volume:int ->
    ?link:Repro_net.Link.params ->
    ?budget_bytes_s:float ->
    ?window_every:int ->
    ?window_s:float ->
    ?deadline_every:int ->
    ?deadline_s:float ->
    volumes:int ->
    unit ->
    t
  (** A deterministic synthetic fleet: [volumes] volumes round-robined
      across [hosts] (default 2, [drives_per_host] 4), [tenants]
      (default 2) and [volumes/4 + 1] filers, priorities
      cycling 0-2, per-volume seeds derived from [seed]. Every
      [window_every]-th volume (default: none) gets a window opening at
      [window_s]; every [deadline_every]-th volume (default: none) gets
      a backup-window deadline at [deadline_s]. *)

  val render : t -> string
  (** The canonical text form; [parse (render s)] round-trips. *)

  val parse : string -> t
  (** Parse the text form (see docs/FLEET.md): one directive per line —
      [fleet seed=S], [host NAME drives=N link_mb_s=B latency_ms=L ...],
      [tenant NAME budget_mb_s=B],
      [volume NAME host=H tenant=T bytes=N ...]; [#] comments. Raises
      {!Invalid}. *)

  val digest : t -> int
  (** CRC-32 of the canonical form; names a spec in the fleet catalog. *)
end

(** {1 Planning} *)

type assignment = {
  a_volume : Spec.volume;
  a_slots : Scheduler.slot list;
      (** candidate drive slots, all on the volume's host *)
  a_ready : float;  (** the volume's window opening *)
}

type plan = {
  p_spec : Spec.t;
  p_assignments : assignment list;
      (** admission priority order: priority, then window, then name *)
  p_slots : (Scheduler.slot * string) list;
      (** every drive slot of the fleet with its host, in slot order *)
}

val plan : Spec.t -> plan
(** Deterministic: drive slots are numbered across hosts in spec order;
    the queue is sorted stably by (priority, window, name). *)

val link_bound_bytes_s : plan -> float
(** The per-link bandwidth-delay bound on aggregate goodput: the sum of
    {!Repro_net.Link.model_goodput} over hosts that have volumes. *)

val pp_plan : Format.formatter -> plan -> unit

(** {1 The fleet catalog} *)

module Status : sig
  type completed = {
    c_volume : string;
    c_tenant : string;
    c_host : string;
    c_bytes : int;  (** payload bytes dumped *)
    c_tape_bytes : int;  (** serialized library bytes *)
    c_tape_crc : int;  (** CRC-32 of the serialized library *)
    c_drive : string;  (** slot key, e.g. ["drive3"] *)
    c_started : float;
    c_finished : float;
  }

  type t = {
    st_digest : int;  (** {!Spec.digest} of the spec the night ran *)
    st_completed : completed list;  (** completion order *)
  }

  val save : Repro_util.Serde.writer -> t -> unit
  (** Format [FLT1]; see docs/FORMATS.md. *)

  val load : Repro_util.Serde.reader -> t
  val pp : Format.formatter -> t -> unit
end

(** {1 Running the night} *)

type storm = {
  storm_after : int;
      (** volumes completed (this run) before the storm hits *)
  storm_drives : int;  (** drives killed, chosen by [storm_seed] *)
  storm_abort_after : int option;
      (** abort all further admissions after this many completions *)
  storm_seed : int;
}

exception Drive_storm of string
(** Raised inside a doomed volume's execution; fatal to its drive slot. *)

exception Night_aborted
(** Raised when the storm's abort threshold passes; stops admissions. *)

type report = {
  rp_elapsed : float;  (** simulated makespan of this run *)
  rp_completed : Status.completed list;  (** this run, completion order *)
  rp_failed : (string * string) list;  (** volume, error message *)
  rp_unran : string list;
  rp_bytes : int;  (** payload bytes completed this run *)
  rp_goodput_bytes_s : float;  (** [rp_bytes / rp_elapsed] *)
  rp_tenant_goodput : (string * float) list;
      (** per tenant, spec order; bytes completed this run over makespan *)
  rp_link_bound_bytes_s : float;  (** {!link_bound_bytes_s} of the plan *)
  rp_tapes : (string * string) list;
      (** volume name to serialized library bytes; [[]] unless
          [~keep_tapes] *)
  rp_alerts : Repro_obs.Slo.alert list;
      (** the night's SLO alert journal, in transition order; [[]] when
          no plane was armed *)
}

val run :
  ?storm:storm ->
  ?resume:Status.t ->
  ?keep_tapes:bool ->
  ?rules:Repro_obs.Slo.rule list ->
  plan ->
  report * Status.t
(** Execute the night. [resume] skips volumes already in the catalog
    (its digest must match the plan's spec, else
    [Invalid_argument]); the returned status appends this run's
    completions. A [storm] kills [storm_drives] drive slots once
    [storm_after] volumes complete — each doomed slot loses its
    in-flight volume and admits nothing more — and optionally aborts the
    whole night at [storm_abort_after]. When armed, the obs plane
    records [fleet.*] gauges, per-tenant goodput series, and
    [fleet.util.*] utilization timelines, and the night's SLO rules —
    {!builtin_rules} plus any extra [rules] — are evaluated
    incrementally from the scheduler's interval hook, landing in
    [rp_alerts]. Identical seeds yield byte-identical journals. *)

val pp_report : Format.formatter -> report -> unit

(** {1 The night report}

    One JSON artifact answering "did tonight meet its objectives":
    per-volume / per-tenant / per-host SLO attainment, the alert
    timeline, goodput against the link bound, and the {!Repro_obs
    .Analysis} bottleneck verdict. See docs/SLO.md for the schema and
    docs/FORMATS.md section 10. *)

val night_report :
  ?verdict:string -> plan -> report -> status:Status.t -> string
(** Deterministic JSON: identical nights produce identical bytes. A
    volume {e attains} its SLO when it completed and (if it carries a
    deadline) finished by it; tenant/host attainment is the attained
    fraction of their volumes, judged against the full catalog
    [status] so a resumed night counts prior completions. [verdict] is
    the fleet phase's bottleneck verdict when the caller analyzed the
    plane. *)

val attainment_summary :
  string -> (float * (string * float) list * (string * float) list) option
(** Read a saved night report back (via {!Repro_obs.Slo.Json}):
    [(fleet attainment, per-tenant, per-host)], or [None] if the JSON
    is not a night report. *)

(** Host-side self-profiling plane.

    Everything in this module measures the *simulator process itself* —
    wall-clock seconds from [Unix.gettimeofday] and allocation bytes from
    [Gc.allocated_bytes] — never the simulated clock. It is the mirror
    image of [Repro_obs.Obs]: obs observes the simulated 1999 filer on
    simulated time; prof observes the OCaml program running the
    simulation on host time.

    The plane is zero-feedback by construction: probes only read the
    host clock and Gc counters and mutate the profiler's own
    preallocated state. They never touch the event heap, the simulated
    clock, RNG state, or any plane the simulation reads, so arming a
    profile cannot change event order or simulated results — the same
    seed with profiling on or off yields byte-identical traces and
    tapes (pinned by a qcheck property in [test/test_prof.ml]).

    Like the fault and obs planes, at most one profile is armed per
    domain ({!Repro_util.Ambient}): probes hit on another domain never
    land in it. While no plane is armed on any domain, every hook is a
    single load-and-branch, so instrumented hot paths pay one load +
    compare when profiling is off (<1% wall overhead, gated in
    [bench speed]). *)

type t
(** An aggregating profile: a call tree over probes plus flat
    per-probe totals, counters, peak gauges, and Gc deltas. *)

type probe
(** An interned probe identifier. Sites create probes once at module
    initialization ([let p_dispatch = Prof.probe "sim.dispatch"]) so the
    hot path pays no string hashing. The intern tables are the plane's
    one process-wide mutable state: sites write them at module
    initialisation, before any domain is spawned, and only read them
    afterwards. *)

type counter
(** An interned counter/peak-gauge identifier, interned like probes. *)

val probe : string -> probe
(** [probe name] interns [name] (idempotent) and returns its id.
    Conventional names are dotted, subsystem first: ["sim.dispatch"],
    ["obs.record"], ["net.frame"]. *)

val counter : string -> counter
(** [counter name] interns a counter name (idempotent). The same id is
    used for [add] (monotonic count) or [peak] (high-water gauge) —
    use distinct names for the two roles. *)

(** {1 Lifecycle} *)

val create : unit -> t

val with_armed : t -> (unit -> 'a) -> 'a
(** [with_armed t f] arms [t] on the calling domain and runs [f] in an
    armed window. When [f] returns or raises, the window closes: armed
    wall time and Gc deltas accumulate into [t], probe frames left open
    are force-closed, and the domain's previously armed profile (if any)
    is restored. Windows may be repeated; totals accumulate. A profile
    has one window open at a time: do not arm it again inside its own
    window or on a second domain. *)

val enabled : unit -> bool
(** True while some profile is armed on the calling domain. Sites can
    use this to skip building probe arguments, though [enter]/[add]
    already no-op. *)

(** {1 Probe sites}

    The token discipline mirrors obs span unwinding: [enter] returns an
    opaque token (0 when profiling is off), [leave tok] pops every frame
    at or above the token's depth, so a site that raises through nested
    probes self-heals as the exception unwinds. *)

val enter : probe -> int
val leave : int -> unit

val with_probe : probe -> (unit -> 'a) -> 'a
(** [with_probe p f] = [enter]/[leave] around [f], exception-safe.
    Convenience for cold-ish sites; the hottest loops use the token
    pair directly to avoid the closure. *)

val add : counter -> int -> unit
(** Monotonic event count (events dispatched, hook invocations,
    interval recomputations, bytes). No-op when disarmed. *)

val bump : counter -> unit
(** [bump c] = [add c 1]. *)

val peak : counter -> int -> unit
(** High-water gauge: records [max] of all observations (peak event-heap
    depth, peak frame stack). No-op when disarmed. *)

(** {1 Reports} *)

type row = {
  r_name : string;
  r_calls : int;
  r_total_s : float;  (** wall seconds, children included (recursion-safe) *)
  r_self_s : float;  (** wall seconds net of child probe frames *)
  r_alloc_b : float;  (** bytes allocated net of child probe frames *)
}

type gc = {
  g_minor_words : float;
  g_promoted_words : float;
  g_major_words : float;
  g_minor_collections : int;
  g_major_collections : int;
  g_compactions : int;
}

type summary = {
  s_wall_s : float;  (** total armed wall-clock seconds *)
  s_rows : row list;  (** per-probe totals, sorted by self time desc *)
  s_counters : (string * int) list;  (** sorted by name *)
  s_peaks : (string * int) list;  (** sorted by name *)
  s_gc : gc;  (** Gc deltas over the armed window(s) *)
}

val summary : t -> summary
(** Snapshot; callable while armed (includes the live window). *)

val pp_summary : Format.formatter -> t -> unit
(** Human-readable table: probes by self time, then counters, peaks,
    and Gc deltas. *)

val folded : t -> string
(** Folded-stack flamegraph text: one [path value] line per call-tree
    node, ';'-separated frames rooted at ["all"], value = self time in
    microseconds. Feed to [flamegraph.pl] or speedscope. Lines are
    sorted so equal profiles render byte-identically. *)

val jsonl : t -> string
(** One JSON object per line: a [meta] line (wall seconds + Gc deltas),
    then [probe], [counter], and [peak] lines mirroring [summary]. *)

(** Deterministic SLO evaluation and alerting on the observability
    plane.

    The plane records what happened ({!Obs}); the analysis plane says
    why it took that long ({!Analysis}); this module answers the
    operator's question — {e did tonight meet its objectives, and if
    not, which ones broke, when, and did they recover}. Rules are
    declarative conditions over the armed plane's metrics and time
    series, evaluated on {e simulated} time: an engine bound to a plane
    is fed evaluation instants (the fleet scheduler's interval hook, a
    post-hoc {!replay} of a recorded run), and each rule walks a
    firing → resolved state machine whose transitions append to an
    ordered alert journal. Everything is a pure function of the recorded
    plane, so identical seeds produce byte-identical journals
    (property-tested in [test/test_slo.ml]).

    Rule files use the versioned [SLO1] text form (docs/FORMATS.md
    section 10, docs/SLO.md for the grammar); {!Repro_fleet.Fleet.run}
    evaluates a night's rules incrementally and rolls the journal into
    the night report. *)

(** {1 Rules} *)

type cmp = Above | Below

type condition =
  | Threshold of { metric : string; cmp : cmp; bound : float }
      (** The metric's current value compares [Above]/[Below] the bound.
          Value lookup order: the newest series point at or before the
          evaluation instant, then a gauge, then a nonzero counter —
          series first so post-hoc {!replay} reads values as of the
          instant rather than the end-of-run gauge. A rule over a metric
          with no data yet is silent, not firing. *)
  | Burn_rate of { series : string; window_s : float; cmp : cmp; bound : float }
      (** The series' mean rate of change over the trailing [window_s]
          — (newest - oldest) / (t_newest - t_oldest) across the points
          inside the window — compares against the bound. Silent with
          fewer than two points in the window. *)
  | Absence of { metric : string; after_s : float }
      (** The metric (gauge, counter, or series) has reported nothing by
          [after_s] simulated seconds. Resolves when data appears. *)
  | Deadline of { series : string; target : float; by_s : float }
      (** The series has not reached [target] by [by_s] simulated
          seconds — a volume not finished by its backup window. Resolves
          when the series reaches the target, however late. *)

type rule = { r_name : string; r_condition : condition }

val rule : name:string -> condition -> rule

(** {1 The SLO1 rule file} *)

exception Parse_error of { line : int; msg : string }

val parse_rules : string -> rule list
(** Parse the [SLO1] text form: a [slo1] magic line, then one rule per
    line — [threshold NAME metric=M above=B] (or [below=B]),
    [burn NAME series=S window_s=W above=R], [absence NAME metric=M
    after_s=T], [deadline NAME series=S target=V by_s=T]; [#] comments.
    Raises {!Parse_error}. *)

val render_rules : rule list -> string
(** The canonical text form; [parse_rules (render_rules rs)]
    round-trips. *)

(** {1 Alerts} *)

type kind = Firing | Resolved

type alert = {
  a_rule : string;
  a_kind : kind;
  a_t : float;  (** simulated seconds of the transition *)
  a_value : float;  (** the observed value (or rate) at the transition *)
}

val journal_json : alert list -> string
(** The journal as deterministic JSON:
    [{"journal":"SLO1","alerts":[{"rule":…,"kind":…,"t_s":…,"value":…},…]}].
    Identical journals produce identical bytes. *)

val pp_journal : Format.formatter -> alert list -> unit

(** {1 The engine} *)

type t

val create : ?rules:rule list -> Obs.t -> t
(** An engine bound to a plane. Rules evaluate in list order at every
    instant, which (with deterministic instants) makes the journal
    deterministic. *)

val eval : t -> now:float -> unit
(** Evaluate every rule at simulated time [now], appending firing /
    resolved transitions to the journal. Instants must be fed in
    nondecreasing order. *)

val replay : ?upto:float -> t -> unit
(** Post-hoc evaluation of a recorded plane: gather every instant a
    rule could change state — the points of every series a rule
    references plus each rule's own [after_s] / [by_s] boundary —
    and {!eval} at each in ascending order, ending at [upto] (default:
    the latest gathered instant). This is what [backupctl backup --rules]
    runs on a finished backup's plane. *)

val alerts : t -> alert list
(** The journal, in transition order. *)

val firing : t -> string list
(** Rules currently firing, in rule order. *)

val default_job_rules : unit -> rule list
(** The built-in rule set [backupctl backup --alerts-out] applies to a
    single backup or fault drill when no [--rules] file is given: tape
    silence ([tape.write.ops] absent), fault injections present, and
    retries above budget. *)

(** {1 JSON values}

    A minimal parser for the plane's own JSON artifacts (night reports,
    alert journals) — enough for [backupctl fleet report]/[status] to
    read a saved night report back without external dependencies. *)

module Json : sig
  type v =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of v list
    | Obj of (string * v) list

  val parse : string -> v
  (** Raises [Failure] on malformed input. *)

  val member : string -> v -> v option
  (** Object field lookup; [None] on non-objects. *)
end

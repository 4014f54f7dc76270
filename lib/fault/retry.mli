(** Bounded retry with exponential backoff for transient device errors.

    The engine wraps each backup attempt in {!run}: a {!Fault.Transient}
    triggers a backoff (charged to the simulated clock by the caller's
    [charge]) and a re-run, up to 4 tries in all. Anything other
    than [Transient] — media errors, dead drives — propagates immediately;
    retrying cannot help those. Every retry is journalled to the armed
    fault plane, and each attempt runs inside an [attempt] span on the
    armed obs plane ({!Repro_obs.Obs}) carrying the retry's journal seq
    — the trace shows exactly which attempt absorbed which fault. *)

val backoff : attempt:int -> float
(** Backoff charged before retry number [attempt] (1-based), in simulated
    seconds: 1 s, doubling with each retry, so the three retries of the
    4-try budget wait 7 s in all. *)

val run :
  ?charge:(float -> unit) ->
  ?cleanup:(exn -> unit) ->
  label:string ->
  (unit -> 'a) ->
  'a
(** [run ~label f] runs [f], retrying on {!Fault.Transient}. [charge] is
    called with each backoff duration (default: ignore); [cleanup] runs
    before each retry with the exception that caused it (e.g. sealing a
    partial tape stream). When the attempt budget is exhausted the last
    [Transient] propagates. *)

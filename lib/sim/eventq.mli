(** The simulator's specialized event queue.

    An indexed binary min-heap over parallel arrays — a flat [float]
    array of times, an [int] array of insertion sequence numbers, and
    the action closures — ordered by [(time, seq)]. A push allocates no
    per-event record and the comparator is inlined rather than a
    closure: the only allocation on the scheduling path is the caller's
    action closure itself.

    Ties fire in insertion order, exactly like the generic comparator
    heap the engine used before (kept as a test oracle in
    [test/oracle.ml]), so dispatch order — observable in every trace —
    is unchanged. *)

type t

val create : unit -> t
val length : t -> int
val is_empty : t -> bool

val push : t -> float -> (unit -> unit) -> unit
(** [push q time action] schedules [action] at [time]. *)

val min_time : t -> float
(** Time of the earliest event. Raises [Invalid_argument] when empty. *)

val pop : t -> unit -> unit
(** Remove the earliest event and return its action. Raises
    [Invalid_argument] when empty. *)

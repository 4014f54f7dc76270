(** A discrete-event simulation engine.

    Events are callbacks scheduled at absolute simulated times; ties fire in
    scheduling order, so runs are deterministic. The engine owns a
    {!Clock.t} that device models share. *)

type t

val create : unit -> t
val now : t -> float

val schedule_at : t -> float -> (unit -> unit) -> unit
(** Raises [Invalid_argument] if the time is in the past. *)

val schedule_in : t -> float -> (unit -> unit) -> unit
val pending : t -> int

val step : t -> bool
(** Fire the earliest event; [false] if the queue was empty. *)

val run : t -> unit
(** Fire events until the queue is empty. *)

val run_until : t -> float -> unit
(** Fire events with time <= the horizon, then advance the clock to the
    horizon. *)

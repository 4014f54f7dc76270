(** Simulated time.

    All device service times and CPU charges in the reproduction are in
    simulated seconds on a shared clock, never wall-clock time; a run on a
    fast or slow machine produces identical numbers. *)

type t

val create : unit -> t
val now : t -> float

val advance : t -> float -> unit
(** [advance t dt] moves time forward by [dt] seconds. Raises
    [Invalid_argument] if [dt < 0]. *)

val advance_to : t -> float -> unit
(** [advance_to t when_] moves time forward to an absolute instant; moving
    backwards raises [Invalid_argument]. *)

(** A contended resource (CPU, a disk volume, a tape drive) with busy-time
    and byte accounting.

    A resource has unit capacity: it can deliver one busy-second of service
    per second of simulated time, shared among any number of concurrent
    tasks. Work is expressed in seconds-of-service, i.e. already divided by
    the device's rate; the device models in [repro_block]/[repro_tape]
    translate bytes into service seconds. *)

type t

val create : string -> t
val name : t -> string

val charge : t -> ?bytes:int -> float -> unit
(** [charge r ~bytes secs] accumulates [secs] of busy time (and payload
    bytes, for MB/s reporting) onto [r]. *)

val busy : t -> float
val bytes : t -> int
val reset : t -> unit

val utilization : t -> elapsed:float -> float
(** Busy fraction over an interval: [busy r /. elapsed], 0 if no time
    passed. *)

val rate_mb_s : t -> elapsed:float -> float
(** Decimal MB/s of payload moved through the resource over [elapsed]. *)

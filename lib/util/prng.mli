(** Deterministic pseudo-random numbers (splitmix64).

    Every experiment in the reproduction is seeded, so workload generation,
    aging, and failure injection are exactly repeatable. *)

type t

val create : int -> t
(** [create seed] makes an independent generator. *)

val int64 : t -> int64

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound). Raises [Invalid_argument] if
    [bound <= 0]. *)

val fill : t -> bytes -> int -> int -> unit
(** [fill t b off len] sets [b.[off] .. b.[off + len - 1]] to the bytes
    [len] calls of [int t 256] would draw, in order, and leaves [t] as they
    would. Raises [Invalid_argument] on a range outside [b]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [lo, hi] inclusive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [0, bound). *)

val bool : t -> bool
val choose : t -> 'a array -> 'a
val shuffle : t -> 'a array -> unit

(** {1 Distributions} *)

val exponential : t -> mean:float -> float
val lognormal : t -> mu:float -> sigma:float -> float
(** Log-normal via Box–Muller; the classic model for file sizes. *)

val zipf_table : n:int -> s:float -> t -> int
(** [zipf_table ~n ~s] precomputes the CDF once and returns a sampler. *)

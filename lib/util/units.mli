(** Byte-size constants and throughput conversions.

    The paper reports throughput in MB/s and GB/hour; these helpers keep
    unit conversions in one place. *)

val mib : int

val mb_per_s : bytes:int -> seconds:float -> float
(** Decimal megabytes per second, as the paper reports. *)

val gb_per_hour : bytes:int -> seconds:float -> float

(** Streaming summary statistics (count / mean / min / max / stddev).

    Used by device models and the workload generator to report service-time
    and file-size distributions without storing samples. *)

type t

val create : unit -> t
val add : t -> float -> unit
val count : t -> int
val mean : t -> float
val min : t -> float
val max : t -> float

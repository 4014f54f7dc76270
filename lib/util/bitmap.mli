(** Fixed-size bit sets.

    WAFL's block map is an array of bit planes: one [Bitmap.t] per snapshot
    plus one for the active file system. Incremental image dump is the set
    difference of two planes, so the set-algebra operations here are the
    heart of the physical backup path. *)

type t

val create : int -> t
(** [create n] is a bitmap of [n] bits, all clear. *)

val length : t -> int
val get : t -> int -> bool
val set : t -> int -> unit
val clear : t -> int -> unit
val assign : t -> int -> bool -> unit
val fill : t -> bool -> unit
val copy : t -> t
val equal : t -> t -> bool

val count : t -> int
(** Number of set bits (population count). *)

val union : t -> t -> t
(** [union a b] is [a ∪ b]. Lengths must match. *)

val inter : t -> t -> t
val diff : t -> t -> t
(** [diff a b] is [a \ b]: bits set in [a] and clear in [b]. *)

val union_into : dst:t -> t -> unit
(** [union_into ~dst src] sets every bit of [src] in [dst] in place. *)

val is_empty : t -> bool
val subset : t -> t -> bool
(** [subset a b] is true iff every bit of [a] is set in [b]. *)

val iter_set : (int -> unit) -> t -> unit
(** [iter_set f t] calls [f i] for every set bit, in increasing order. *)

val to_list : t -> int list
val first_set_from : t -> int -> int option
(** [first_set_from t i] is the index of the first set bit at or after [i]. *)

val first_clear_from : t -> int -> int option

val write : Serde.writer -> t -> unit
val read : Serde.reader -> t

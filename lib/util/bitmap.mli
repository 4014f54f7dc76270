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

(** {1 Plane transposes}

    A word buffer holds one little-endian u32 per index, word [i] at byte
    [4i]; bit [p] of word [i] is bit [first + i] of [planes.(p)]. Both
    raise [Invalid_argument] unless there are at most 32 planes, [first]
    is a non-negative multiple of 8, every plane has at least
    [first + count] bits and the buffer at least [4 * count] bytes. *)

val to_words : t array -> first:int -> count:int -> bytes -> unit
(** [to_words planes ~first ~count dst] overwrites the first [count]
    words of [dst] from bits [first, first + count) of the planes. *)

val of_words : t array -> first:int -> count:int -> string -> unit
(** [of_words planes ~first ~count src] overwrites bits
    [first, first + count) of every plane from the first [count] words of
    [src]; word bits at or above [Array.length planes] are ignored. *)

val write : Serde.writer -> t -> unit
val read : Serde.reader -> t

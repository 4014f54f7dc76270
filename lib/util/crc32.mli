(** CRC-32 (IEEE 802.3 polynomial), table-driven.

    Both backup stream formats checksum their records so that restore can
    detect media corruption: the logical restore skips the damaged file, the
    image restore refuses the damaged block record. *)

type t
(** A running CRC state. *)

val init : t
val update_string : t -> string -> t

val update_substring : t -> string -> int -> int -> t
(** Slicing-by-16: sixteen input bytes per table combine. *)

val update_byte : t -> int -> t
(** Feed a single byte (low 8 bits of the int). *)

val finish : t -> int
(** The final CRC as a non-negative int in [0, 2^32). *)

val string : string -> int
(** One-shot CRC of a whole string. *)

val substring : string -> int -> int -> int

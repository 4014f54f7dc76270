(** CRC-32 (IEEE 802.3 polynomial).

    Both backup stream formats checksum their records so that restore can
    detect media corruption: the logical restore skips the damaged file, the
    image restore refuses the damaged block record.

    The per-byte work is done in C (crc32_stubs.c): a carry-less-multiply
    fold where the CPU has one, a slicing-by-8 table loop elsewhere. Both
    compute the same function; {!kernel} names the one in use. *)

type t
(** A running CRC state. *)

val init : t
val update_string : t -> string -> t

val update_substring : t -> string -> int -> int -> t
(** [update_substring crc s pos len] feeds [len] bytes of [s] from [pos].
    Raises [Invalid_argument] if they are not all in [s]. *)

val update_byte : t -> int -> t
(** Feed a single byte (low 8 bits of the int). *)

val finish : t -> int
(** The final CRC as a non-negative int in [0, 2^32). *)

val string : string -> int
(** One-shot CRC of a whole string. *)

val substring : string -> int -> int -> int

val kernel : string
(** ["pclmul"] on x86-64 hosts with PCLMULQDQ and SSE4.1, where bulk input
    is folded 64 bytes at a time; ["table"] elsewhere. Probed once, when
    the module is initialised. *)

module Private : sig
  val kernels : (string * (t -> string -> int -> int -> t)) list
  (** Every kernel this host can run, by name, each behind the same bound
      checks as {!update_substring}: the one named by {!kernel} and the
      portable table loop. For tests that pin each against a reference. *)
end

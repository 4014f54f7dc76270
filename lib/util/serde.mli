(** Binary serialization cursors.

    All multi-byte quantities are little-endian. Writers append to an
    internal buffer; readers consume a [string] left to right. Reader
    functions raise [Corrupt] (never [Invalid_argument]) on truncated or
    malformed input so callers can treat any decoding failure uniformly,
    which matters for backup streams read from possibly-damaged media. *)

exception Corrupt of string

(** {1 Writer} *)

type writer

val writer : ?initial_size:int -> unit -> writer

val write_u8 : writer -> int -> unit
(** [write_u8 w v] appends one byte. Raises [Invalid_argument] unless
    [0 <= v < 256]. *)

val write_u16 : writer -> int -> unit
val write_u32 : writer -> int -> unit
(** [write_u32] accepts [0 <= v < 2^32] (OCaml ints are 63-bit). *)

val write_u64 : writer -> int64 -> unit

val write_int : writer -> int -> unit
(** [write_int] writes a full 63-bit OCaml integer (as a signed 64-bit
    little-endian quantity). *)

val write_bool : writer -> bool -> unit

val write_string : writer -> string -> unit
(** Length-prefixed (u32) string. *)

val write_fixed : writer -> string -> unit
(** Raw bytes with no length prefix; the reader must know the length. *)

val write_bytes : writer -> bytes -> unit

val writer_length : writer -> int
val contents : writer -> string

val clear : writer -> unit
(** Empty the writer, keeping its storage — for pooled writers on hot
    paths. *)

(** {1 Reader} *)

type reader

val reader : ?pos:int -> string -> reader

val read_u8 : reader -> int
val read_u16 : reader -> int
val read_u32 : reader -> int
val read_u64 : reader -> int64
val read_int : reader -> int
val read_bool : reader -> bool
val read_string : reader -> string
val read_fixed : reader -> int -> string
val at_end : reader -> bool
val expect_magic : reader -> string -> unit
(** [expect_magic r m] reads [String.length m] bytes and raises [Corrupt]
    unless they equal [m]. *)

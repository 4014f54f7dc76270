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

val write_float : writer -> float -> unit
(** IEEE-754 bits as a little-endian u64. *)

val write_option : (writer -> 'a -> unit) -> writer -> 'a option -> unit
(** A bool tag, then the value if [Some]. *)

type count = U8 | U16 | U32  (** the width of a count prefix *)

val write_count : count -> writer -> int -> unit

val write_list : count -> (writer -> 'a -> unit) -> writer -> 'a list -> unit
(** The count, then each item in order. *)

val write_array : count -> (writer -> 'a -> unit) -> writer -> 'a array -> unit

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
val read_float : reader -> float
val read_option : (reader -> 'a) -> reader -> 'a option

val read_count : count -> reader -> int
(** Reads a count and raises [Corrupt] if it exceeds the bytes left in
    the input. Every persisted item takes at least one byte, so a decoder
    that sizes a list, array or table only by such a count allocates at
    most a constant factor of its input. *)

val read_list : count -> (reader -> 'a) -> reader -> 'a list
(** A checked count, then that many items read left to right. *)

val read_array : count -> (reader -> 'a) -> reader -> 'a array
val expect_magic : reader -> string -> unit
(** [expect_magic r m] reads [String.length m] bytes and raises [Corrupt]
    unless they equal [m]. *)

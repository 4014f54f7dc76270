(** A staging buffer that cuts a byte stream into fixed-size pieces.

    Tape blocking ({!Repro_tape.Tapeio}: records of the blocking factor)
    and the network session (MTU payloads) both accept writes of any
    length and hand fixed-size pieces downstream. The stage is one
    reused [Bytes] with an explicit length and doubling growth: full
    pieces are cut out of it by offset and the remainder is blitted back
    to the front, so the only allocation per piece is the piece itself. *)

type t

val create : piece:int -> emit:(string -> unit) -> t
(** [emit] receives every piece, in stream order. The closure is stored
    here, once, so writes allocate nothing for it. Raises
    [Invalid_argument] if [piece <= 0]. *)

val add : t -> string -> unit
(** Append [s], then emit every full piece now staged. *)

val flush : t -> unit
(** Emit the staged remainder (shorter than a piece) as a final piece,
    if there is one. The stage stays usable. *)

(** Wire framing for the simulated network.

    Every byte that crosses a {!Link} travels in a frame: magic
    ["RNF1"], a u32 sequence number, a u32 CRC-32 covering the sequence
    number and the payload, and the length-prefixed payload (all
    little-endian, {!Repro_util.Serde} conventions). The CRC is what
    makes delivery {e verifiable}: a
    receiver rejects a damaged frame exactly as the tape formats reject
    a damaged record, and the sender's retransmission timer recovers it.
    See [docs/NETWORK.md] and the wire-framing section of
    [docs/FORMATS.md]. *)

val magic : string
(** ["RNF1"]. *)

val overhead : int
(** Header bytes added to every payload: magic + seq + crc + length
    prefix (16). On-wire size of a frame is
    [overhead + String.length payload]. *)

val encode : seq:int -> string -> string
(** [encode ~seq payload] is the frame image: one fresh string holding
    the header and a single copy of the payload. Raises
    [Invalid_argument] if [seq] is outside [0, 2{^32}). *)

val decode : string -> int * int * int
(** [decode image] checks the image in place and returns
    [(seq, off, len)]: the payload is [String.sub image off len], left
    for the caller to take as a slice. Raises [Repro_util.Serde.Corrupt]
    (never [Invalid_argument]) on an image shorter than {!overhead}, a
    bad magic, a length field past the end of the image, or a CRC
    mismatch. *)

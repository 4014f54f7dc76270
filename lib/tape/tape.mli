(** A simulated streaming tape drive (DLT-7000 class).

    A tape is a strictly linear sequence of variable-length records and
    filemarks. The drive charges service time at a fixed streaming rate to
    its {!Repro_sim.Resource.t} — the tapes in the paper matter only as
    fixed-rate sinks/sources with an archival linear format, which is
    exactly what this models. A simple compression factor models the
    DLT-7000's hardware compressor (the paper's drives sustain roughly
    8–10 MB/s on compressible file data against a 5 MB/s native rate).

    Records are immutable strings: a write stores the caller's string and
    a read returns the stored one, with no copy either way. Records can be
    corrupted ({!corrupt_record}) to drive the failure-injection tests:
    logical restore must lose only the damaged file, image restore must
    detect the damaged block record. *)

type params = {
  native_mb_s : float;  (** media rate before compression *)
  compression : float;  (** effective ratio; 1.0 disables, 1.7 ≈ DLT on text *)
  capacity_bytes : int;  (** media capacity (of compressed data) *)
}

val dlt7000 : params
(** 5 MB/s native, 1.7:1 compression, 35 GB media. *)

val params :
  ?native_mb_s:float -> ?compression:float -> ?capacity_bytes:int -> unit -> params
(** Raises [Invalid_argument] unless every value is positive (a NaN is
    not). *)

type media
(** A removable cartridge. *)

val blank_media : label:string -> media
val media_label : media -> string
val media_bytes : media -> int
(** Compressed bytes currently on the media. *)

val media_records : media -> int

type t
(** A drive. *)

exception End_of_tape
exception No_media

val create : ?params:params -> label:string -> unit -> t
val label : t -> string
val params_of : t -> params
val resource : t -> Repro_sim.Resource.t

val write_media : Repro_util.Serde.writer -> media -> unit
(** Serialize a cartridge (records and filemarks) for off-line storage. *)

val read_media : Repro_util.Serde.reader -> media

val load : t -> media -> unit
(** Load a cartridge (implicitly rewinds). Raises [Invalid_argument] if one
    is already loaded. *)

val unload : t -> media
val loaded : t -> media option

val write_record : t -> string -> unit
(** Append a record at the current position, truncating anything beyond it.
    The media keeps [s] itself, not a copy: it must be a fresh string that
    no [Bytes] still aliases.
    Raises [End_of_tape] if media capacity is exceeded, [No_media] if the
    drive is empty. An armed fault plane may raise
    [Repro_fault.Fault.Transient] (soft write error, nothing written) or
    [Repro_fault.Fault.Drive_dead]. *)

val write_filemark : t -> unit

type read_result = Record of string | Filemark | End_of_data

val read_record : t -> read_result
(** Read the item at the current position and advance past it. Injected
    soft read errors raise [Repro_fault.Fault.Transient] {e without}
    advancing (the drive retries in place); an injected hard media error
    raises [Repro_fault.Fault.Media_error] {e after} advancing past the
    unrecoverable record, so the stream can continue beyond it. *)

val seek_end : t -> unit
(** Position past the last item, so subsequent writes append instead of
    truncating (locate-end-of-data, as on a real drive). *)

val charge_delay : t -> float -> unit
(** Charge [secs] of non-transfer busy time to the drive and its resource:
    the cost of a drive's internal retry of a soft error. *)

val media_ends_with_record : media -> bool
(** True iff the cartridge's last item is a data record — i.e. a stream
    was cut off before its terminating filemark (see
    {!Library.ensure_appendable} and the engine's stream sealing). *)

val rewind : t -> unit
val skip_filemarks : t -> int -> unit
(** [skip_filemarks t n] positions after the [n]-th next filemark
    (fast-forward). Raises [End_of_tape] if fewer remain. *)

val corrupt_record : media -> index:int -> unit
(** Replace record [index] (counting records only, not filemarks) with a
    copy whose bytes at a few fixed offsets are flipped. A record string
    read before the corruption keeps its bytes. Raises [Invalid_argument] if out of range or not a
    record. *)

(** {1 Accounting} *)

val busy_seconds : t -> float

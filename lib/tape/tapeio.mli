(** Buffered byte streams over a tape stacker.

    Both backup formats are byte streams; this layer blocks them into
    fixed-size tape records (the classic dump "blocking factor") and spans
    cartridges transparently: when the drive hits end-of-tape the stacker
    loads the next blank and the stream continues.

    Sinks and sources are built over a {e backend} — by default the
    attached stacker, but the network mover ([Repro_net.Mover])
    substitutes one that ships each record to a remote tape server. The dump and image layers only ever see
    {!sink}/{!source}, so tape content is byte-identical wherever the
    stacker lives. *)

(** {1 Writing} *)

type backend = {
  be_put : string -> unit;  (** write one physical record *)
  be_mark : unit -> unit;  (** write the end-of-stream filemark *)
}

val library_backend : Library.t -> backend
(** The local backend: records go to the stacker's drive, changing
    cartridges on end-of-tape. Loads the first cartridge if the drive is
    empty; raises [Tape.End_of_tape] only when the whole magazine is
    exhausted. *)

type sink

val sink_to : ?record_bytes:int -> backend -> sink
val sink : ?record_bytes:int -> Library.t -> sink
(** [sink lib] is [sink_to (library_backend lib)]. *)

val output : sink -> string -> unit
val close_sink : sink -> unit
(** Flush the final partial record and write a filemark: the end-of-stream
    marker a reader stops at. *)

val sink_bytes_written : sink -> int

(** {1 Reading} *)

type source

val records : ?skip_streams:int -> Library.t -> unit -> string option
(** The local read backend: a pull closure yielding one record at a time,
    [None] at the stream's filemark (or the end of the last cartridge).
    Rewinds the stacker to the first written cartridge; [skip_streams]
    fast-forwards past that many filemark-terminated streams (spanning
    cartridges). Raises [End_of_file] if fewer streams exist. Soft read
    errors are retried in place (the drive's own recovery); a hard media
    error skips the record — the stream formats' CRCs see the damage. *)

val source_of : (unit -> string option) -> source

val source : ?skip_streams:int -> Library.t -> source
(** [source lib] is [source_of (records lib)]. *)

val input : source -> int -> string
(** [input src n] reads exactly [n] bytes. Raises [End_of_file] if the
    stream (filemark or end of last cartridge) ends first. *)

val input_all : source -> string
(** Everything up to the end of the stream. *)

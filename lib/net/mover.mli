(** The data mover: tape streams over a network {!Session}.

    NDMP calls this role the {e mover}: the component that moves backup
    data between a data stream and a remote tape service. Here it bridges
    {!Repro_tape.Tapeio} and the simulated transport so the dump and
    image layers write byte-identical streams whether the stacker is
    cabled to the host or lives on a tape server across a link. It is
    the one owner of the record-over-session wire: the engine's remote
    drives and replication's snapshot transfers both ship through it.

    Wire shape: each tape record travels as a 4-byte little-endian
    length followed by the record bytes; the end-of-stream filemark is
    the reserved length [0xFFFF_FFFF]. The receiving side reassembles
    records from whatever chunk sizes the MTU induces and replays them
    against a far-side {!Repro_tape.Tapeio.backend} (for a tape server,
    {!Repro_tape.Tapeio.library_backend}), so cartridge spanning and
    filemarks behave exactly as locally. *)

type shipment
(** One stream's trip across the link. The transfer report appears when
    the stream closes (for a sink, when the dump layer seals it). *)

val xfer : shipment -> Session.xfer option
(** [None] until the stream has closed. *)

val ship_to :
  label:string ->
  session:Session.t ->
  Repro_tape.Tapeio.backend ->
  shipment * Repro_tape.Tapeio.sink
(** A sink whose records are shipped over [session], on a data stream
    named [label], and replayed against the far-side backend. Opens the
    stream immediately; sealing the sink ships the filemark and closes
    the stream. May raise the fault-plane exceptions of {!Session.write}
    as well as whatever the far backend raises (a tape server's
    [Tape.End_of_tape]). *)

val remote_source :
  ?skip_streams:int ->
  session:Session.t ->
  Repro_tape.Library.t ->
  shipment * Repro_tape.Tapeio.source
(** Read one stream of the tape server's stacker and ship it back: the
    three-way restore path (tape server to a host that is neither the
    backup host nor the server). The whole stream is transferred before
    the source yields its first byte — restore formats rewind-and-seek
    within a stream, which the wire cannot — so the shipment's transfer
    report is available immediately. *)

(** {1 The wire} *)

val record_header : int -> string
(** The 4-byte prefix of a record of that many bytes. *)

val mark : string
(** The filemark on the wire. *)

val reassembler :
  on_record:(string -> unit) ->
  on_mark:(unit -> unit) ->
  string ->
  int ->
  int ->
  unit
(** [reassembler ~on_record ~on_mark] is a fresh consumer of wire slices
    [s off len], the shape {!Session.open_stream} delivers: feed it the
    wire bytes in order, cut anywhere, and it calls [on_record] and
    [on_mark] once per complete item, in wire order. It runs in time
    linear in the bytes fed. Each record it hands over is a fresh string
    the callee may keep. Memory held for a partial record follows the
    bytes received, not the record's length field. *)

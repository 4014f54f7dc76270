(** The data mover: tape streams over a network {!Repro_net.Session}.

    NDMP calls this role the {e mover}: the component that moves backup
    data between a data stream and a remote tape service. Here it bridges
    {!Repro_tape.Tapeio} and the simulated transport so the dump and
    image layers write byte-identical streams whether the stacker is
    cabled to the host or lives on a tape server across a link.

    Wire shape: each tape record travels as a 4-byte little-endian
    length followed by the record bytes; the end-of-stream filemark is
    the reserved length [0xFFFF_FFFF]. The receiving side reassembles
    records from whatever chunk sizes the MTU induces and replays them
    against the remote stacker with {!Repro_tape.Tapeio.library_backend},
    so cartridge spanning and filemarks behave exactly as locally. *)

type shipment
(** One stream's trip across the link. The transfer report appears when
    the stream closes (for a sink, when the dump layer seals it). *)

val xfer : shipment -> Repro_net.Session.xfer option
(** [None] until the stream has closed. *)

val remote_sink :
  session:Repro_net.Session.t ->
  Repro_tape.Library.t ->
  shipment * Repro_tape.Tapeio.sink
(** A sink whose records are shipped over [session] and written to the
    tape server's stacker. Opens a data stream immediately; sealing the
    sink ships the filemark and closes the stream. May raise the
    fault-plane exceptions of {!Repro_net.Session.write} as well as
    [Tape.End_of_tape] surfaced from the far side. *)

val remote_source :
  ?skip_streams:int ->
  session:Repro_net.Session.t ->
  Repro_tape.Library.t ->
  shipment * Repro_tape.Tapeio.source
(** Read one stream of the tape server's stacker and ship it back: the
    three-way restore path (tape server to a host that is neither the
    backup host nor the server). The whole stream is transferred before
    the source yields its first byte — restore formats rewind-and-seek
    within a stream, which the wire cannot — so the shipment's transfer
    report is available immediately. *)

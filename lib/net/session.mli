(** An NDMP-style session: a control connection plus flow-controlled
    data streams over one {!Link}.

    The control half exchanges small verbs (connect, open/close a data
    stream), each costing a round trip on the simulated clock. The data
    half ships byte streams chunked into MTU-sized {!Frame}s under a
    sliding window: at most [window_bytes] of payload is unacknowledged
    at any instant, arrivals are acknowledged cumulatively one latency
    later, and a frame unacknowledged for a few round trips is
    retransmitted. Delivery to the receiver callback is exactly-once and
    in order.

    A fault that kills an in-flight stream ({!Repro_fault.Fault.Transient}
    on retransmit exhaustion, {!Repro_fault.Fault.Partitioned} on a
    partition) aborts {e the stream}, not the session: the stream slot is
    released, and once the fault clears (e.g.
    {!Repro_fault.Fault.revive}) the same session opens fresh streams —
    which is how the engine's part retry and the replication plane's
    resume-from-last-snapshot ({!Repro_repl.Repl}) ride out partitions
    without reconnecting.

    The whole exchange runs on the session's own
    {!Repro_sim.Engine} — deterministic, ordered, and entirely on
    simulated time. Every frame send (control and data, retransmissions
    included) passes the fault plane's
    {!Repro_fault.Fault.on_link_send} hook: a lost frame costs a
    retransmission; exhausting a frame's retransmit budget raises
    {!Repro_fault.Fault.Transient} (absorbed by the engine's part-level
    retry); a partitioned link raises
    {!Repro_fault.Fault.Partitioned} (fatal to the in-flight part, like
    drive death). *)

type t

val connect : host:string -> Link.t -> t
(** Open the control connection (two verb round trips). The transport
    window and retransmit budget come from the link's
    {!Link.params}. *)

val now : t -> float
(** The session's simulated clock. *)

type xfer = {
  xf_bytes : int;  (** payload bytes delivered *)
  xf_frames : int;  (** data frames sent, retransmissions included *)
  xf_retransmits : int;
  xf_elapsed_s : float;  (** open-to-close simulated seconds *)
  xf_goodput_bytes_s : float;  (** [xf_bytes / xf_elapsed_s] *)
  xf_peak_in_flight : int;  (** high-water unacknowledged payload bytes *)
}

type stream

val open_stream :
  ?label:string -> t -> deliver:(string -> int -> int -> unit) -> stream
(** Open a data stream (one verb round trip). [deliver image off len]
    receives the payload bytes on the far side, in order, exactly once,
    in whatever chunk sizes the MTU induces: each chunk is the slice
    [off, off + len) of an immutable frame image, handed over without a
    copy. One stream may be open per session at a
    time; a second [open_stream] before [close_stream] raises
    [Invalid_argument]. *)

val write : stream -> string -> unit
(** Queue bytes; full MTU chunks are framed and sent as the window
    allows. May raise the fault-plane exceptions above. *)

val close_stream : stream -> xfer
(** Flush, run the simulation until every frame is delivered and
    acknowledged, close the stream (one verb round trip), and report the
    transfer. *)

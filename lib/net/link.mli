(** A point-to-point link between the filer and a remote tape server.

    A link has a bandwidth, a propagation latency, an MTU, and a
    transport window (the flow-control budget {!Session} enforces).
    Serialization time is charged to the link's
    {!Repro_sim.Resource.t} — the shared capacity the engine's
    scheduler sees when several part streams cross one link — and
    cumulative frame/byte/loss/retransmit counters feed the obs plane
    and the bench gates.

    Fault addressing: the link's [label] is its fault-plane device
    (packet loss, flaps, partitions — see {!Repro_fault.Fault}). *)

type params = {
  bandwidth_bytes_s : float;  (** wire rate, header bytes included *)
  latency_s : float;  (** one-way propagation delay *)
  mtu_bytes : int;  (** max payload bytes per frame *)
  window_bytes : int;  (** max unacknowledged payload in flight *)
  max_retransmits : int;
      (** per-frame retransmission budget; exhausting it surfaces
          {!Repro_fault.Fault.Transient} to the engine retry *)
}

val default_params : params
(** A fat datacenter link: 125 MB/s (GbE), 0.2 ms one-way, 64 KiB MTU,
    4 MiB window, 8 retransmits. *)

type error =
  | Bad_bandwidth of float  (** not positive, or not finite *)
  | Bad_latency of float  (** negative, or not finite *)
  | Bad_mtu of int  (** not positive *)
  | Window_below_mtu of { window : int; mtu : int }
  | Bad_retransmits of int  (** negative *)

exception Invalid of error

val error_message : error -> string

val params :
  ?bandwidth_bytes_s:float ->
  ?latency_s:float ->
  ?mtu_bytes:int ->
  ?window_bytes:int ->
  ?max_retransmits:int ->
  unit ->
  params
(** {!default_params} with overrides. Raises {!Invalid} on a bandwidth
    that is not positive and finite, a latency that is negative or not
    finite (NaN and infinities included), an MTU that is not
    positive, a window smaller than the MTU, or a negative retransmit
    budget. *)

type t

val create : ?params:params -> label:string -> unit -> t
val label : t -> string
val params_of : t -> params

val resource : t -> Repro_sim.Resource.t
(** Busy seconds = serialization time of every frame sent; bytes = wire
    bytes moved. Named ["link:<label>"], following the ["disk:"] /
    ["tape:"] resource-key convention the scheduler's demand vectors
    use. *)

(** {1 Counters} (cumulative over the link's lifetime) *)

val frames_sent : t -> int
val retransmits : t -> int

(** {1 Accounting} (called by {!Session}) *)

val note_send : t -> payload_bytes:int -> unit
val note_retransmit : t -> unit

val tx_time : t -> payload_bytes:int -> float
(** Serialization time of one frame carrying [payload_bytes]:
    [(payload + Frame.overhead) / bandwidth]. *)

val rtt : t -> float
(** One full-MTU frame's serialization time plus twice the propagation
    latency — the round trip the transport's window is measured
    against. *)

val model_goodput : params -> float
(** The bandwidth-delay model the bench gate checks the transport
    against: payload goodput is the lesser of the link's payload
    capacity [bandwidth * mtu/(mtu+overhead)] and the window limit
    [window / rtt]. *)

(** {1 Persistence} ([RLNK1]; the engine stores one link per remote
    host) *)

val save : Repro_util.Serde.writer -> t -> unit
val load : Repro_util.Serde.reader -> t

module Serde = Repro_util.Serde
module Resource = Repro_sim.Resource

type params = {
  bandwidth_bytes_s : float;
  latency_s : float;
  mtu_bytes : int;
  window_bytes : int;
  max_retransmits : int;
}

let default_params =
  {
    bandwidth_bytes_s = 125e6;
    latency_s = 0.0002;
    mtu_bytes = 64 * 1024;
    window_bytes = 4 * 1024 * 1024;
    max_retransmits = 8;
  }

type error =
  | Bad_bandwidth of float
  | Bad_latency of float
  | Bad_mtu of int
  | Window_below_mtu of { window : int; mtu : int }
  | Bad_retransmits of int

exception Invalid of error

let error_message = function
  | Bad_bandwidth b when not (Float.is_finite b) ->
    Printf.sprintf "link bandwidth must be finite (got %g bytes/s)" b
  | Bad_bandwidth b ->
    Printf.sprintf "link bandwidth must be positive (got %g bytes/s)" b
  | Bad_latency l when not (Float.is_finite l) ->
    Printf.sprintf "link latency must be finite (got %g s)" l
  | Bad_latency l -> Printf.sprintf "link latency must not be negative (got %g s)" l
  | Bad_mtu m -> Printf.sprintf "link MTU must be positive (got %d bytes)" m
  | Window_below_mtu { window; mtu } ->
    Printf.sprintf "link window (%d bytes) is smaller than its MTU (%d bytes)"
      window mtu
  | Bad_retransmits n ->
    Printf.sprintf "link retransmit budget must not be negative (got %d)" n

let params ?(bandwidth_bytes_s = default_params.bandwidth_bytes_s)
    ?(latency_s = default_params.latency_s)
    ?(mtu_bytes = default_params.mtu_bytes)
    ?(window_bytes = default_params.window_bytes)
    ?(max_retransmits = default_params.max_retransmits) () =
  let invalid e = raise (Invalid e) in
  if not (bandwidth_bytes_s > 0.0 && Float.is_finite bandwidth_bytes_s) then
    invalid (Bad_bandwidth bandwidth_bytes_s);
  if not (latency_s >= 0.0 && Float.is_finite latency_s) then invalid (Bad_latency latency_s);
  if mtu_bytes <= 0 then invalid (Bad_mtu mtu_bytes);
  if window_bytes < mtu_bytes then
    invalid (Window_below_mtu { window = window_bytes; mtu = mtu_bytes });
  if max_retransmits < 0 then invalid (Bad_retransmits max_retransmits);
  { bandwidth_bytes_s; latency_s; mtu_bytes; window_bytes; max_retransmits }

type t = {
  l_label : string;
  p : params;
  res : Resource.t;
  mutable frames_sent : int;
  mutable l_retransmits : int;
}

let create ?(params = default_params) ~label () =
  {
    l_label = label;
    p = params;
    res = Resource.create (Printf.sprintf "link:%s" label);
    frames_sent = 0;
    l_retransmits = 0;
  }

let label t = t.l_label
let params_of t = t.p
let resource t = t.res
let frames_sent t = t.frames_sent
let retransmits t = t.l_retransmits
let tx_time t ~payload_bytes = Float.of_int (payload_bytes + Frame.overhead) /. t.p.bandwidth_bytes_s
let rtt t = tx_time t ~payload_bytes:t.p.mtu_bytes +. (2.0 *. t.p.latency_s)

let note_send t ~payload_bytes =
  t.frames_sent <- t.frames_sent + 1;
  (* Serialization occupies the wire whether or not the frame arrives. *)
  Resource.charge t.res ~bytes:(payload_bytes + Frame.overhead)
    (tx_time t ~payload_bytes)

let note_retransmit t = t.l_retransmits <- t.l_retransmits + 1

let model_goodput p =
  let mtu = Float.of_int p.mtu_bytes in
  let wire = Float.of_int (p.mtu_bytes + Frame.overhead) in
  let payload_rate = p.bandwidth_bytes_s *. mtu /. wire in
  let rtt = (wire /. p.bandwidth_bytes_s) +. (2.0 *. p.latency_s) in
  Float.min payload_rate (Float.of_int p.window_bytes /. rtt)

let save w t =
  Serde.write_fixed w "RLNK1";
  Serde.write_string w t.l_label;
  Serde.write_float w t.p.bandwidth_bytes_s;
  Serde.write_float w t.p.latency_s;
  Serde.write_u32 w t.p.mtu_bytes;
  Serde.write_u32 w t.p.window_bytes;
  Serde.write_u16 w t.p.max_retransmits

let load r =
  Serde.expect_magic r "RLNK1";
  let label = Serde.read_string r in
  let bandwidth_bytes_s = Serde.read_float r in
  let latency_s = Serde.read_float r in
  let mtu_bytes = Serde.read_u32 r in
  let window_bytes = Serde.read_u32 r in
  let max_retransmits = Serde.read_u16 r in
  create
    ~params:{ bandwidth_bytes_s; latency_s; mtu_bytes; window_bytes; max_retransmits }
    ~label ()

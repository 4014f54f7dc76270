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

let params ?(bandwidth_bytes_s = default_params.bandwidth_bytes_s)
    ?(latency_s = default_params.latency_s)
    ?(mtu_bytes = default_params.mtu_bytes)
    ?(window_bytes = default_params.window_bytes)
    ?(max_retransmits = default_params.max_retransmits) () =
  if bandwidth_bytes_s <= 0.0 then invalid_arg "Link.params: bandwidth";
  if latency_s < 0.0 then invalid_arg "Link.params: latency";
  if mtu_bytes <= 0 then invalid_arg "Link.params: mtu";
  if window_bytes < mtu_bytes then invalid_arg "Link.params: window < mtu";
  if max_retransmits < 0 then invalid_arg "Link.params: max_retransmits";
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
  Serde.write_u64 w (Int64.bits_of_float t.p.bandwidth_bytes_s);
  Serde.write_u64 w (Int64.bits_of_float t.p.latency_s);
  Serde.write_u32 w t.p.mtu_bytes;
  Serde.write_u32 w t.p.window_bytes;
  Serde.write_u16 w t.p.max_retransmits

let load r =
  Serde.expect_magic r "RLNK1";
  let label = Serde.read_string r in
  let bandwidth_bytes_s = Int64.float_of_bits (Serde.read_u64 r) in
  let latency_s = Int64.float_of_bits (Serde.read_u64 r) in
  let mtu_bytes = Serde.read_u32 r in
  let window_bytes = Serde.read_u32 r in
  let max_retransmits = Serde.read_u16 r in
  create
    ~params:{ bandwidth_bytes_s; latency_s; mtu_bytes; window_bytes; max_retransmits }
    ~label ()

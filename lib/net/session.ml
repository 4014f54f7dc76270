module Sim = Repro_sim.Engine
module Fault = Repro_fault.Fault
module Obs = Repro_obs.Obs

(* Control verbs are tiny framed messages; their payload size only sets
   the (negligible) serialization charge. *)
let verb_bytes = 64

type t = {
  s_host : string;
  s_link : Link.t;
  engine : Sim.t;
  mutable wire_free_at : float;  (** the wire serializes one frame at a time *)
  mutable stream_open : bool;
}

type xfer = {
  xf_bytes : int;
  xf_frames : int;
  xf_retransmits : int;
  xf_elapsed_s : float;
  xf_goodput_bytes_s : float;
  xf_peak_in_flight : int;
}

(* A frame is encoded once, when it enters the window; a retransmission
   resends the same image. *)
type frame_state = { fs_image : string; mutable fs_attempts : int }

let payload_bytes fs = String.length fs.fs_image - Frame.overhead

type stream = {
  st : t;
  deliver : string -> int -> int -> unit;
  chunk : Repro_util.Stage.t;  (** cuts writes into MTU payloads for [sendq] *)
  sendq : string Queue.t;  (** MTU payloads awaiting window room *)
  inflight : (int, frame_state) Hashtbl.t;
  mutable next_seq : int;
  mutable acked_upto : int;  (** every seq below this is acknowledged *)
  mutable inflight_bytes : int;
  mutable peak_in_flight : int;
  recvbuf : (int, string * int * int) Hashtbl.t;  (** image, payload slice *)
  mutable expected : int;
  mutable sent_frames : int;
  mutable st_retransmits : int;
  mutable payload_bytes : int;
  opened_at : float;
  span : int;
  mutable aborted : bool;
  mutable closed : bool;
}

let now t = Sim.now t.engine

(* A frame committed to the wire: fault hook (which may drop it or raise
   on a partition), then serialization occupies the link. Returns the
   instant the last bit leaves and whether the frame survived. *)
let send_raw t ~payload_bytes =
  let frame = Link.frames_sent t.s_link in
  let verdict = Fault.on_link_send ~device:(Link.label t.s_link) ~frame in
  let lost = verdict = `Lost in
  Link.note_send t.s_link ~payload_bytes;
  let start = Float.max (Sim.now t.engine) t.wire_free_at in
  let finish = start +. Link.tx_time t.s_link ~payload_bytes in
  t.wire_free_at <- finish;
  (finish, lost)

(* One control round trip: request frame out, reply frame back, the
   clock advanced past both propagation delays. A dropped verb is simply
   reissued (bounded like data retransmissions). *)
let control t verb =
  let p = Link.params_of t.s_link in
  let rec go attempt =
    let finish, lost = send_raw t ~payload_bytes:verb_bytes in
    let reply_at =
      finish +. (2.0 *. p.Link.latency_s)
      +. Link.tx_time t.s_link ~payload_bytes:verb_bytes
    in
    Sim.run_until t.engine reply_at;
    if lost then
      if attempt > p.Link.max_retransmits then
        raise
          (Fault.Transient
             { device = Link.label t.s_link; what = verb ^ " verb lost" })
      else begin
        ignore
          (Fault.note_retransmit ~device:(Link.label t.s_link)
             ~frame:(Link.frames_sent t.s_link - 1));
        Link.note_retransmit t.s_link;
        go (attempt + 1)
      end
  in
  Obs.instant "net.control"
    ~attrs:[ ("verb", Obs.Str verb); ("host", Obs.Str t.s_host) ];
  go 1

let connect ~host link =
  let t =
    {
      s_host = host;
      s_link = link;
      engine = Sim.create ();
      wire_free_at = 0.0;
      stream_open = false;
    }
  in
  control t "CONNECT_OPEN";
  control t "CONNECT_AUTH";
  t

let retransmit_timeout st = 4.0 *. Link.rtt st.st.s_link

(* Tear the stream down before propagating a failure: the stream slot is
   released (so the engine's retry can open a fresh one on this session)
   and events still queued for this stream become inert. *)
let abort_stream st e =
  if not st.closed then begin
    st.aborted <- true;
    st.closed <- true;
    st.st.stream_open <- false;
    Obs.span_end st.span ~attrs:[ ("error", Obs.Str (Printexc.to_string e)) ]
  end;
  raise e

(* Self-profiling: the two event callbacks of a stream. A frame's
   arrival includes its deliver, which hands the payload to the
   receiving side (a restore reading its stream, a tape server writing
   records). *)
let p_arrival = Repro_prof.Prof.probe "net.arrival"
let p_ack = Repro_prof.Prof.probe "net.ack"

let guard_deliver st (image, off, len) =
  try st.deliver image off len with e -> abort_stream st e

let rec send_frame st seq fs =
  let finish, lost =
    try send_raw st.st ~payload_bytes:(payload_bytes fs)
    with e -> abort_stream st e
  in
  st.sent_frames <- st.sent_frames + 1;
  let p = Link.params_of st.st.s_link in
  if not lost then
    Sim.schedule_at st.st.engine (finish +. p.Link.latency_s) (fun () ->
        Repro_prof.Prof.with_probe p_arrival (fun () -> arrival st fs.fs_image));
  let attempt = fs.fs_attempts in
  Sim.schedule_at st.st.engine
    (finish +. retransmit_timeout st)
    (fun () -> timeout st seq attempt)

and arrival st image =
  if not (st.aborted || st.closed) then begin
    (* The frame image really is encoded and decoded: the CRC framing is
       exercised on every chunk, and the receiver takes the payload as a
       slice of the image. *)
    let seq, off, len = Frame.decode image in
    if seq >= st.expected && not (Hashtbl.mem st.recvbuf seq) then begin
      Hashtbl.replace st.recvbuf seq (image, off, len);
      while Hashtbl.mem st.recvbuf st.expected do
        let chunk = Hashtbl.find st.recvbuf st.expected in
        Hashtbl.remove st.recvbuf st.expected;
        st.expected <- st.expected + 1;
        guard_deliver st chunk
      done;
      (* Cumulative acknowledgement, one propagation delay back. *)
      let upto = st.expected in
      let p = Link.params_of st.st.s_link in
      Sim.schedule_in st.st.engine p.Link.latency_s (fun () ->
          Repro_prof.Prof.with_probe p_ack (fun () -> ack st upto))
    end
  end

and ack st upto =
  if not st.aborted then begin
    while st.acked_upto < upto do
      (match Hashtbl.find_opt st.inflight st.acked_upto with
      | Some fs ->
        Hashtbl.remove st.inflight st.acked_upto;
        st.inflight_bytes <- st.inflight_bytes - payload_bytes fs
      | None -> ());
      st.acked_upto <- st.acked_upto + 1
    done;
    try_send st
  end

and timeout st seq attempt =
  if not st.aborted then
    match Hashtbl.find_opt st.inflight seq with
    | Some fs when fs.fs_attempts = attempt ->
      let p = Link.params_of st.st.s_link in
      if attempt > p.Link.max_retransmits then
        abort_stream st
          (Fault.Transient
             {
               device = Link.label st.st.s_link;
               what = Printf.sprintf "frame %d retransmit budget exhausted" seq;
             });
      ignore
        (Fault.note_retransmit ~device:(Link.label st.st.s_link) ~frame:seq);
      Link.note_retransmit st.st.s_link;
      st.st_retransmits <- st.st_retransmits + 1;
      fs.fs_attempts <- fs.fs_attempts + 1;
      send_frame st seq fs
    | Some _ | None -> ()

and try_send st =
  let p = Link.params_of st.st.s_link in
  while
    (not (Queue.is_empty st.sendq)) && st.inflight_bytes < p.Link.window_bytes
  do
    let payload = Queue.pop st.sendq in
    let seq = st.next_seq in
    st.next_seq <- seq + 1;
    let fs = { fs_image = Frame.encode ~seq payload; fs_attempts = 1 } in
    Hashtbl.replace st.inflight seq fs;
    st.inflight_bytes <- st.inflight_bytes + String.length payload;
    if st.inflight_bytes > st.peak_in_flight then
      st.peak_in_flight <- st.inflight_bytes;
    send_frame st seq fs
  done

let open_stream ?(label = "stream") t ~deliver =
  if t.stream_open then invalid_arg "Session.open_stream: stream already open";
  control t "DATA_LISTEN";
  control t "DATA_CONNECT";
  t.stream_open <- true;
  let span =
    Obs.span_begin "net.stream"
      ~attrs:[ ("host", Obs.Str t.s_host); ("label", Obs.Str label) ]
  in
  let sendq = Queue.create () in
  {
    st = t;
    deliver;
    chunk =
      Repro_util.Stage.create ~piece:(Link.params_of t.s_link).Link.mtu_bytes
        ~emit:(fun payload -> Queue.push payload sendq);
    sendq;
    inflight = Hashtbl.create 64;
    next_seq = 0;
    acked_upto = 0;
    inflight_bytes = 0;
    peak_in_flight = 0;
    recvbuf = Hashtbl.create 64;
    expected = 0;
    sent_frames = 0;
    st_retransmits = 0;
    payload_bytes = 0;
    opened_at = Sim.now t.engine;
    span;
    aborted = false;
    closed = false;
  }

let write st s =
  if st.closed then invalid_arg "Session.write: stream closed";
  st.payload_bytes <- st.payload_bytes + String.length s;
  Repro_util.Stage.add st.chunk s;
  try_send st

(* Mark the stream finished before propagating, so stale events left in
   the queue (timeouts of frames already acknowledged, arrivals of a
   dead stream) are inert when a later stream pumps the engine. *)
let close_stream st =
  if st.closed then invalid_arg "Session.close_stream: already closed";
  Repro_util.Stage.flush st.chunk;
  try_send st;
  (try
     while Hashtbl.length st.inflight > 0 || not (Queue.is_empty st.sendq) do
       if not (Sim.step st.st.engine) then
         failwith "Session.close_stream: transport stalled"
     done
   with e -> abort_stream st e);
  st.closed <- true;
  st.st.stream_open <- false;
  (* Elapsed covers the data transfer only: the DATA_STOP teardown verb
     below costs its own control round trip but is not payload time. *)
  let elapsed = Sim.now st.st.engine -. st.opened_at in
  let goodput =
    if elapsed > 0.0 then Float.of_int st.payload_bytes /. elapsed else 0.0
  in
  control st.st "DATA_STOP";
  Obs.io ~op:"net.xfer" ~device:(Link.label st.st.s_link)
    ~bytes:st.payload_bytes elapsed;
  Obs.count "net.frames" st.sent_frames;
  Obs.count "net.retransmits" st.st_retransmits;
  Obs.set_gauge
    (Printf.sprintf "net.%s.goodput_bytes_s" st.st.s_host)
    goodput;
  Obs.set_gauge
    (Printf.sprintf "net.%s.peak_in_flight" st.st.s_host)
    (Float.of_int st.peak_in_flight);
  (* One point per stream on the link's busy-fraction timeline: goodput
     achieved over this transfer relative to the raw line rate. *)
  Obs.sample
    (Printf.sprintf "net.util.%s" st.st.s_host)
    (Float.min 1.0 (goodput /. (Link.params_of st.st.s_link).Link.bandwidth_bytes_s));
  Obs.span_end st.span
    ~attrs:
      [
        ("bytes", Obs.Int st.payload_bytes);
        ("frames", Obs.Int st.sent_frames);
        ("retransmits", Obs.Int st.st_retransmits);
        ("elapsed_s", Obs.Float elapsed);
      ];
  {
    xf_bytes = st.payload_bytes;
    xf_frames = st.sent_frames;
    xf_retransmits = st.st_retransmits;
    xf_elapsed_s = elapsed;
    xf_goodput_bytes_s = goodput;
    xf_peak_in_flight = st.peak_in_flight;
  }

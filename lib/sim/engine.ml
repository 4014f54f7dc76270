(* The dispatch loop runs on the indexed {!Eventq} — no per-event record
   or comparator closure. *)
type t = { clock : Clock.t; queue : Eventq.t }

(* Self-profiling hooks: host wall clock only, never simulated time. *)
let p_dispatch = Repro_prof.Prof.probe "sim.dispatch"
let c_events = Repro_prof.Prof.counter "sim.events_dispatched"
let c_heap_peak = Repro_prof.Prof.counter "sim.heap_depth"

let create () = { clock = Clock.create (); queue = Eventq.create () }
let now t = Clock.now t.clock

let schedule_at t time action =
  if time < Clock.now t.clock -. 1e-9 then
    invalid_arg "Engine.schedule_at: time in the past";
  Eventq.push t.queue time action

let schedule_in t delay action = schedule_at t (now t +. delay) action
let pending t = Eventq.length t.queue

let step t =
  if Repro_prof.Prof.enabled () then
    Repro_prof.Prof.peak c_heap_peak (pending t);
  let q = t.queue in
  if Eventq.is_empty q then false
  else begin
    Clock.advance_to t.clock (Eventq.min_time q);
    let action = Eventq.pop q in
    let tok = Repro_prof.Prof.enter p_dispatch in
    action ();
    Repro_prof.Prof.leave tok;
    Repro_prof.Prof.bump c_events;
    true
  end

let run t = while step t do () done

let run_until t horizon =
  let q = t.queue in
  while (not (Eventq.is_empty q)) && Eventq.min_time q <= horizon do
    ignore (step t)
  done;
  Clock.advance_to t.clock horizon

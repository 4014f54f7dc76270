(* Tests for the simulation substrate: clock, DES engine, resources, and
   the fluid stream runner that produces the paper's table numbers. *)

module Clock = Repro_sim.Clock
module Engine = Repro_sim.Engine
module Eventq = Repro_sim.Eventq
module Heap = Oracle.Heap
module Resource = Repro_sim.Resource
module Instrument = Repro_backup.Instrument

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checkf msg = Alcotest.(check (float 1e-6)) msg

let test_clock () =
  let c = Clock.create () in
  checkf "starts at 0" 0.0 (Clock.now c);
  Clock.advance c 1.5;
  checkf "advanced" 1.5 (Clock.now c);
  Clock.advance_to c 3.0;
  checkf "advance_to" 3.0 (Clock.now c);
  (try
     Clock.advance c (-1.0);
     Alcotest.fail "negative advance should raise"
   with Invalid_argument _ -> ());
  try
    Clock.advance_to c 1.0;
    Alcotest.fail "backwards advance_to should raise"
  with Invalid_argument _ -> ()

let test_engine_ordering () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule_at e 2.0 (fun () -> log := "b" :: !log);
  Engine.schedule_at e 1.0 (fun () -> log := "a" :: !log);
  Engine.schedule_at e 2.0 (fun () -> log := "c" :: !log);
  (* same-time events fire in scheduling order *)
  Engine.run e;
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] (List.rev !log);
  checkf "time at last event" 2.0 (Engine.now e)

let test_engine_cascade () =
  let e = Engine.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    if !count < 5 then Engine.schedule_in e 1.0 tick
  in
  Engine.schedule_in e 1.0 tick;
  Engine.run e;
  checki "cascaded" 5 !count;
  checkf "final time" 5.0 (Engine.now e)

let test_engine_run_until () =
  let e = Engine.create () in
  let fired = ref 0 in
  List.iter (fun t -> Engine.schedule_at e t (fun () -> incr fired)) [ 1.0; 2.0; 3.0 ];
  Engine.run_until e 2.5;
  checki "two fired" 2 !fired;
  checkf "clock at horizon" 2.5 (Engine.now e);
  checki "one pending" 1 (Engine.pending e)

(* ---------------------------- event queue ----------------------------- *)

(* Times are drawn from a small set so ties are common: the tie-break by
   insertion order is exactly what these properties pin down. *)
let times_gen =
  QCheck2.Gen.(list_size (int_range 0 200) (map (fun t -> Float.of_int t /. 4.0) (int_range 0 9)))

(* Pop order equals a stable sort by time of the pushed sequence — the
   indexed heap is a permutation-sorting machine with insertion-order
   ties, no more and no less. *)
let prop_eventq_pops_stable_sorted =
  QCheck2.Test.make ~count:100 ~name:"eventq pop order = stable sort by time"
    times_gen
    (fun times ->
      let q = Eventq.create () in
      let popped = ref [] in
      List.iteri
        (fun i t -> Eventq.push q t (fun () -> popped := (t, i) :: !popped))
        times;
      let expected =
        List.stable_sort
          (fun (a, _) (b, _) -> Float.compare a b)
          (List.mapi (fun i t -> (t, i)) times)
      in
      List.iter
        (fun (t, _) ->
          if Eventq.min_time q <> t then Alcotest.fail "min_time disagrees";
          (Eventq.pop q) ())
        expected;
      Eventq.is_empty q && List.rev !popped = expected)

(* The indexed queue agrees with the generic comparator heap it replaced
   (Oracle.Heap) under interleaved pushes and pops, not just
   push-all-pop-all. *)
let prop_eventq_matches_reference_heap =
  QCheck2.Test.make ~count:100
    ~name:"eventq = reference heap under interleaved ops"
    QCheck2.Gen.(list_size (int_range 0 200) (pair (int_range 0 9) bool))
    (fun ops ->
      let q = Eventq.create () in
      let h =
        Heap.create ~cmp:(fun (a, _) (b, _) -> Float.compare a b)
      in
      let from_q = ref [] and from_h = ref [] in
      let i = ref 0 in
      List.iter
        (fun (t, pop) ->
          if pop then begin
            (match Heap.pop h with
            | Some (_, j) -> from_h := j :: !from_h
            | None -> ());
            if not (Eventq.is_empty q) then (Eventq.pop q) ()
          end
          else begin
            let t = Float.of_int t /. 4.0 in
            let j = !i in
            incr i;
            Heap.push h (t, j);
            Eventq.push q t (fun () -> from_q := j :: !from_q)
          end)
        ops;
      while not (Eventq.is_empty q) do
        (Eventq.pop q) ()
      done;
      let rec drain () =
        match Heap.pop h with
        | Some (_, j) ->
          from_h := j :: !from_h;
          drain ()
        | None -> ()
      in
      drain ();
      !from_q = !from_h)

(* Equal-time events dispatch in scheduling order through the full
   engine. *)
let dispatch_order times =
  let e = Engine.create () in
  let log = ref [] in
  List.iteri (fun i t -> Engine.schedule_at e t (fun () -> log := i :: !log)) times;
  Engine.run e;
  List.rev !log

(* The engine dispatches exactly like the Heap-based engine it replaced
   (Oracle.Heap_engine), including events scheduled from inside a
   dispatch (each may spawn one child [delay] later) and a [run_until]
   horizon part way through. The log records event, firing time and
   queue depth. *)
module type ENGINE = sig
  type t

  val create : unit -> t
  val now : t -> float
  val schedule_at : t -> float -> (unit -> unit) -> unit
  val schedule_in : t -> float -> (unit -> unit) -> unit
  val pending : t -> int
  val run : t -> unit
  val run_until : t -> float -> unit
end

let dispatch_trace (module E : ENGINE) (events, horizon) =
  let e = E.create () in
  let log = ref [] in
  let rec fire id child () =
    log := (id, E.now e, E.pending e) :: !log;
    match child with
    | Some delay -> E.schedule_in e delay (fire (id + 1000) None)
    | None -> ()
  in
  List.iteri (fun i (t, child) -> E.schedule_at e t (fire i child)) events;
  E.run_until e horizon;
  let at_horizon = (E.now e, E.pending e) in
  E.run e;
  (List.rev !log, at_horizon, E.now e)

let prop_engine_dispatch_matches_reference =
  QCheck2.Test.make ~count:100 ~name:"engine dispatch order = reference heap order"
    QCheck2.Gen.(
      pair
        (list_size (int_range 0 200)
           (pair
              (map (fun t -> Float.of_int t /. 4.0) (int_range 0 9))
              (opt (map (fun d -> Float.of_int d /. 4.0) (int_range 0 4)))))
        (map (fun h -> Float.of_int h /. 4.0) (int_range 0 12)))
    (fun prog ->
      dispatch_trace (module Engine) prog
      = dispatch_trace (module Oracle.Heap_engine) prog)

let test_equal_time_stability () =
  let order = dispatch_order (List.init 100 (fun _ -> 1.0)) in
  Alcotest.(check (list int)) "ties fire in insertion order" (List.init 100 Fun.id) order

let test_resource_accounting () =
  let r = Resource.create "disk" in
  Resource.charge r ~bytes:1_000_000 0.5;
  Resource.charge r 0.25;
  checkf "busy" 0.75 (Resource.busy r);
  checki "bytes" 1_000_000 (Resource.bytes r);
  checkf "utilization" 0.375 (Resource.utilization r ~elapsed:2.0);
  checkf "rate" 0.5 (Resource.rate_mb_s r ~elapsed:2.0);
  Resource.reset r;
  checkf "reset" 0.0 (Resource.busy r)

(* ---------------------------- stream runner --------------------------- *)

(* A lone stage's elapsed time is the max of its demands (full overlap). *)
let test_pipeline_single_stage_max () =
  let disk = Resource.create "disk" and cpu = Resource.create "cpu" in
  let stage =
    Instrument.stage "work" [ Instrument.demand disk 2.0; Instrument.demand cpu 0.5 ]
  in
  let r = Instrument.run [ { Instrument.stream_label = "s"; stages = [ stage ] } ] in
  checkf "elapsed = max demand" 2.0 r.Instrument.elapsed;
  let s = List.hd r.Instrument.stages in
  checkf "disk saturated" 1.0 (Instrument.stage_utilization s "disk");
  checkf "cpu at 25%" 0.25 (Instrument.stage_utilization s "cpu")

(* Sequential stages add. *)
let test_pipeline_stages_sequential () =
  let cpu = Resource.create "cpu" in
  let stages =
    [
      Instrument.stage "a" [ Instrument.demand cpu 1.0 ];
      Instrument.stage "b" [ Instrument.demand cpu 2.0 ];
    ]
  in
  let r = Instrument.run [ { Instrument.stream_label = "s"; stages } ] in
  checkf "sum" 3.0 r.Instrument.elapsed;
  checki "two stage summaries" 2 (List.length r.Instrument.stages)

(* Two streams sharing one resource take twice as long; with private
   resources they run fully in parallel. *)
let test_pipeline_sharing () =
  let shared = Resource.create "shared" in
  let stream i =
    {
      Instrument.stream_label = Printf.sprintf "s%d" i;
      stages = [ Instrument.stage "w" [ Instrument.demand shared 1.0 ] ];
    }
  in
  let r = Instrument.run [ stream 0; stream 1 ] in
  checkf "contended: serialized" 2.0 r.Instrument.elapsed;
  let a = Resource.create "a" and b = Resource.create "b" in
  let independent name res =
    {
      Instrument.stream_label = name;
      stages = [ Instrument.stage "w" [ Instrument.demand res 1.0 ] ];
    }
  in
  let r2 = Instrument.run [ independent "x" a; independent "y" b ] in
  checkf "independent: parallel" 1.0 r2.Instrument.elapsed

(* The bottleneck shifts as streams are added: the paper's core scaling
   phenomenon. One tape (0.5s/unit) against a disk that costs 0.2s/unit
   shared: 1 stream is tape-bound; 4 streams are disk-bound. *)
let test_pipeline_bottleneck_shift () =
  let disk = Resource.create "disk" in
  let make_stream i =
    let tape = Resource.create (Printf.sprintf "tape%d" i) in
    {
      Instrument.stream_label = Printf.sprintf "s%d" i;
      stages =
        [
          Instrument.stage "dump"
            [ Instrument.demand disk 0.2; Instrument.demand tape 0.5 ];
        ];
    }
  in
  let one = Instrument.run [ make_stream 0 ] in
  checkf "1 stream: tape-bound" 0.5 one.Instrument.elapsed;
  let four = Instrument.run (List.init 4 make_stream) in
  checkf "4 streams: disk-bound" 0.8 four.Instrument.elapsed;
  (* per-stream throughput degraded from 2/s to 1.25/s: saturation *)
  checkf "disk saturated at 4" 1.0
    (Instrument.stage_utilization (List.hd four.Instrument.stages) "disk")

(* Max-min fairness: a light stream is not starved by a heavy one. *)
let test_pipeline_max_min () =
  let shared = Resource.create "shared" in
  let light = Resource.create "light-private" in
  let heavy =
    {
      Instrument.stream_label = "heavy";
      stages = [ Instrument.stage "w" [ Instrument.demand shared 3.0 ] ];
    }
  in
  let light_stream =
    {
      Instrument.stream_label = "light";
      stages =
        [
          Instrument.stage "w"
            [ Instrument.demand shared 0.5; Instrument.demand light 1.0 ];
        ];
    }
  in
  let r = Instrument.run [ heavy; light_stream ] in
  (* The light stream is limited by its private resource (1s alone); the
     heavy stream uses the leftover shared capacity. Total shared work is
     3.5s on a unit-capacity resource, so elapsed is at least 3.5s and the
     light stream must have finished well before the end. *)
  checkb "elapsed >= total shared work" true (r.Instrument.elapsed >= 3.5 -. 1e-6);
  checkb "elapsed < serialized upper bound" true (r.Instrument.elapsed < 4.5)

(* Zero-demand stages complete instantly and don't wedge the solver. *)
let test_pipeline_empty_stage () =
  let cpu = Resource.create "cpu" in
  let stages =
    [
      Instrument.stage "noop" [];
      Instrument.stage "work" [ Instrument.demand cpu 1.0 ];
      Instrument.stage "noop2" [];
    ]
  in
  let r = Instrument.run [ { Instrument.stream_label = "s"; stages } ] in
  checkf "only real work counts" 1.0 r.Instrument.elapsed;
  checki "all stages reported" 3 (List.length r.Instrument.stages)

(* Parallel same-label stages aggregate into one summary row. *)
let test_pipeline_label_aggregation () =
  let disk = Resource.create "disk" in
  let stream i =
    {
      Instrument.stream_label = Printf.sprintf "s%d" i;
      stages = [ Instrument.stage "dumping files" [ Instrument.demand disk 1.0 ] ];
    }
  in
  let r = Instrument.run [ stream 0; stream 1 ] in
  checki "one aggregated row" 1 (List.length r.Instrument.stages);
  let s = List.hd r.Instrument.stages in
  checkf "window covers both" 2.0 (Instrument.stage_elapsed s);
  checkf "disk fully busy across window" 1.0 (Instrument.stage_utilization s "disk")

(* The runner on the scheduler core computes the same timing as the
   clock-stepped loop it replaced (Oracle.Pipeline): elapsed and every
   label's window and busy seconds agree within 1e-9, relative or
   absolute. Streams draw labels from a small shared pool, and stages may
   have no demand at all. *)
let prop_runner_matches_oracle =
  let open QCheck2.Gen in
  let demand_gen = pair (int_range 0 4) (int_range 0 30) in
  let stage_gen = pair (int_range 0 3) (list_size (int_range 0 3) demand_gen) in
  QCheck2.Test.make ~count:300 ~name:"runner = clock-stepped oracle"
    (list_size (int_range 1 4) (list_size (int_range 1 4) stage_gen))
    (fun spec ->
      let shared = Array.init 3 (fun i -> Resource.create (Printf.sprintf "r%d" i)) in
      let streams =
        List.mapi
          (fun si stages ->
            let private_ = Resource.create (Printf.sprintf "tape:%d" si) in
            {
              Instrument.stream_label = Printf.sprintf "s%d" si;
              stages =
                List.map
                  (fun (label, demands) ->
                    Instrument.stage
                      (Printf.sprintf "g%d" label)
                      (List.map
                         (fun (r, w) ->
                           Instrument.demand ~bytes:(w * 1000)
                             (if r < 3 then shared.(r) else private_)
                             (Float.of_int w /. 10.0))
                         demands))
                  stages;
            })
          spec
      in
      let close a b =
        let d = Float.abs (a -. b) in
        d <= 1e-9 || d <= 1e-9 *. Float.max (Float.abs a) (Float.abs b)
      in
      let got = Instrument.run streams and want = Oracle.Pipeline.run streams in
      let row_matches (w : Instrument.stage_summary) =
        match
          List.find_opt
            (fun (g : Instrument.stage_summary) -> g.stage_label = w.stage_label)
            got.Instrument.stages
        with
        | None -> false
        | Some g ->
          let keys = List.sort_uniq compare (List.map fst (g.busy @ w.busy)) in
          let busy l k = Option.value (List.assoc_opt k l) ~default:0.0 in
          close g.start w.start && close g.finish w.finish
          && List.for_all (fun k -> close (busy g.busy k) (busy w.busy k)) keys
          && g.stage_bytes = w.stage_bytes
      in
      close got.Instrument.elapsed want.Oracle.Pipeline.elapsed
      && List.length got.Instrument.stages = List.length want.Oracle.Pipeline.stages
      && List.for_all row_matches want.Oracle.Pipeline.stages)

let () =
  Alcotest.run "sim"
    [
      ( "clock+engine",
        [
          Alcotest.test_case "clock" `Quick test_clock;
          Alcotest.test_case "event ordering" `Quick test_engine_ordering;
          Alcotest.test_case "cascading events" `Quick test_engine_cascade;
          Alcotest.test_case "run_until horizon" `Quick test_engine_run_until;
        ] );
      ( "event queue",
        [
          QCheck_alcotest.to_alcotest ~long:false prop_eventq_pops_stable_sorted;
          QCheck_alcotest.to_alcotest ~long:false prop_eventq_matches_reference_heap;
          QCheck_alcotest.to_alcotest ~long:false prop_engine_dispatch_matches_reference;
          Alcotest.test_case "equal-time events are stable" `Quick
            test_equal_time_stability;
        ] );
      ( "resources",
        [
          Alcotest.test_case "accounting" `Quick test_resource_accounting;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "single stage = max demand" `Quick
            test_pipeline_single_stage_max;
          Alcotest.test_case "stages add" `Quick test_pipeline_stages_sequential;
          Alcotest.test_case "resource sharing" `Quick test_pipeline_sharing;
          Alcotest.test_case "bottleneck shift with streams" `Quick
            test_pipeline_bottleneck_shift;
          Alcotest.test_case "max-min fairness" `Quick test_pipeline_max_min;
          Alcotest.test_case "empty stages" `Quick test_pipeline_empty_stage;
          Alcotest.test_case "label aggregation" `Quick test_pipeline_label_aggregation;
          QCheck_alcotest.to_alcotest ~long:false prop_runner_matches_oracle;
        ] );
    ]

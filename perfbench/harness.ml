(* The measurement loop every workload shares: set up several times,
   then run timed iterations for the requested seconds, each on inputs
   prepared outside the clock and verified after it. *)

module Prof = Repro_prof.Prof

module type WORKLOAD = sig
  type built
  type state

  val name : string

  val min_traced : int
  (** traced iterations a [--trace 1] run needs for its per-layer figures *)

  val setup : seed:int -> built
  (** building the inputs: the work [setup_s] times *)

  val freeze_state : built -> state
  (** untimed: keep what every iteration starts from *)

  val iterate : Work.acct -> state -> unit
  (** One iteration: its timed operations go through {!Work.timed}; fresh
      targets, checks and the tape digest happen between them, untimed. *)
end

(* Tape-byte digests for the tuning seed (1) and the held-out seed (2). A
   change that alters what lands on tape fails these instead of merely
   looking faster; a deliberate format change updates them. *)
let pinned =
  [
    (("fleet-night", 1), 0xa5156f21);
    (("fleet-night", 2), 0x322c4d24);
    (("aged-volume", 1), 0xa3a8a6b8);
    (("aged-volume", 2), 0x030463d9);
    (("remote-incremental", 1), 0x4a430fa2);
    (("remote-incremental", 2), 0xcdabc5c2);
  ]

let end_to_end =
  [
    ("setup_s", "s"); ("wall_s", "s"); ("volumes_per_s", "1/s"); ("payload_mb_s", "MB/s");
    ("logical_backup_mb_s", "MB/s"); ("physical_backup_mb_s", "MB/s");
    ("logical_restore_mb_s", "MB/s"); ("physical_restore_mb_s", "MB/s");
    ("alloc_per_payload_byte", "B/B"); ("peak_heap_mb", "MB");
  ]

let per_layer =
  [
    ("wafl.mkfs.us_per_volume", "us"); ("wafl.mkfs.alloc_kb_per_volume", "KiB");
    ("workload.populate.us_per_volume", "us"); ("workload.populate.alloc_kb_per_volume", "KiB");
    ("core.backup_job.us_per_volume", "us"); ("core.backup_job.alloc_kb_per_volume", "KiB");
    ("tape.serialize.us_per_volume", "us"); ("fleet.control.us_per_volume", "us");
    ("fleet.volume.p50_ms", "ms"); ("fleet.volume.p99_ms", "ms");
    ("workload.populate.s", "s"); ("workload.age.s", "s"); ("wafl.mkfs.s", "s");
    ("dump.file_header.self_ms", "ms"); ("dump.files", "count");
    ("image.extent.self_ms", "ms"); ("image.extents", "count");
    ("tape.output.self_ms", "ms"); ("tape.input.self_ms", "ms"); ("tape.bytes_streamed", "B");
    ("core.restore_logical.ms", "ms"); ("core.restore_logical.alloc_per_byte", "B/B");
    ("block.bytes_moved", "B"); ("block.seeks", "count");
    ("core.restore_physical.ms", "ms"); ("core.restore_physical.alloc_per_byte", "B/B");
    ("net.frame.self_ms", "ms"); ("net.frames", "count"); ("net.retransmit_ratio", "ratio");
    ("workload.age.ms_per_day", "ms"); ("core.incremental.ms_per_day", "ms");
    ("image.incremental_blocks", "count");
    ("sched.interval.self_ms", "ms"); ("sim.solver.self_ms", "ms"); ("sim.dispatch.self_ms", "ms");
    ("sim.events_dispatched", "count");
    ("gc.minor_collections", "count"); ("gc.major_collections", "count"); ("gc.promoted_mb", "MB");
    ("trace.overhead_pct", "%"); ("trace.attributed_frac", "ratio");
  ]


type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : Stats.metric list;
}

let ratio a b = if b > 0.0 then a /. b else 0.0
let fi = Float.of_int
let sum f xs = List.fold_left (fun a x -> a +. f x) 0.0 xs
let isum f xs = List.fold_left (fun a x -> a + f x) 0 xs

let with_units catalog values =
  List.map
    (fun (name, unit) ->
      match List.assoc_opt name values with
      | Some value -> { Stats.name; unit; value }
      | None -> invalid_arg ("Harness: no value for metric " ^ name))
    catalog

(* Every iteration runs the same timed operations in the same order, so
   the i-th operation of each is the same work. Its best time is the least
   over the iterations. On a shared host interference only ever slows an
   operation, in bursts of about a second, so per-operation bests are the
   steadiest estimate of the uncontended cost. Iterations that ran
   different operations (some failed) fall back to the fastest one. *)
let best_ops (samples : Work.acct list) =
  let seqs = List.map (fun a -> Array.of_list (List.rev a.Work.ops)) samples in
  let first = List.hd seqs in
  if List.for_all (fun s -> Array.length s = Array.length first) seqs then
    List.init (Array.length first) (fun i ->
        (fst first.(i), List.fold_left (fun m s -> Float.min m (snd s.(i))) infinity seqs))
  else
    let fastest =
      List.fold_left (fun b a -> if Work.wall a < Work.wall b then a else b) (List.hd samples) samples
    in
    List.rev fastest.Work.ops

(* The timed phase at its best operations: [wall_s] is their sum, each
   rate a category's bytes over its operations' sum. Bytes are the same in
   every iteration (the tape digest checks it). Set-up time is the best
   set-up, for the same reason: on a shared host the median of set-ups
   follows how busy the host was during the run, and moved by a third
   between two sets of ten runs of the same code, while the best moved
   by a twentieth. *)
let end_to_end_metrics ~setup_s (samples : Work.acct list) =
  let best = best_ops samples in
  let secs ops = sum (fun (op, dt) -> if List.mem op ops then dt else 0.0) best in
  let phase_s = sum snd best in
  let a = List.hd samples in
  let mb_s bytes s = ratio (fi bytes) s /. 1e6 in
  let open Work in
  let night = secs [ Night ] in
  with_units end_to_end
    [
      ("setup_s", List.fold_left Float.min infinity setup_s);
      ("wall_s", phase_s);
      ("volumes_per_s", ratio (fi a.volumes) (if night > 0.0 then night else phase_s));
      ("payload_mb_s", mb_s (payload a) phase_s);
      ("logical_backup_mb_s", mb_s a.lb_bytes (secs [ Night; Logical_backup ]));
      ("physical_backup_mb_s", mb_s a.pb_bytes (secs [ Physical_backup ]));
      ("logical_restore_mb_s", mb_s a.lr_bytes (secs [ Logical_restore ]));
      ("physical_restore_mb_s", mb_s a.pr_bytes (secs [ Physical_restore ]));
      ( "alloc_per_payload_byte",
        Stats.median (List.map (fun a -> ratio a.alloc (fi (payload a))) samples) );
      ( "peak_heap_mb",
        fi ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6 );
    ]

(* Per-layer figures of the traced iterations: times and counts per
   iteration, [per_volume] figures per volume through the per-volume
   layers (the fleet replay when there is one), set-up figures per set-up. *)
let per_layer_metrics ~setup_sink ~setups ~main ~replay ~prof ~(plain : Work.acct list)
    ~(traced : Work.acct list) =
  let accts = traced in
  let t = fi (List.length accts) in
  let s = Prof.summary prof in
  let row name = List.find_opt (fun r -> r.Prof.r_name = name) s.Prof.s_rows in
  let self_ms name = match row name with Some r -> r.Prof.r_self_s *. 1e3 /. t | None -> 0.0 in
  let counter name = ratio (fi (Option.value ~default:0 (List.assoc_opt name s.Prof.s_counters))) t in
  let open Work in
  let replayed = isum (fun a -> a.replayed) accts in
  let vsink, vols =
    if replayed > 0 then (replay, fi replayed) else (main, fi (isum (fun a -> a.volumes) accts))
  in
  let per_volume l scale = ratio ((Layer.totals vsink l).Layer.secs *. scale) vols in
  let alloc_kb l = ratio ((Layer.totals vsink l).Layer.alloc /. 1024.0) vols in
  let setup_secs l = ratio (Layer.totals setup_sink l).Layer.secs (fi setups) in
  let main_ms l = (Layer.totals main l).Layer.secs *. 1e3 /. t in
  let alloc_per_byte l bytes = ratio (Layer.totals main l).Layer.alloc (fi (isum bytes accts)) in
  let days = fi (isum (fun a -> a.days) accts) in
  let volume_layers = [ Layer.mkfs; Layer.populate; Layer.backup_job; Layer.serialize ] in
  (* What [Fleet.run] spends beyond the per-volume layers. It is small
     next to the night, so host noise and GC work that lands in the
     replay rather than the night can make it negative; it is reported
     as measured. *)
  let control =
    if replayed = 0 then 0.0
    else
      (sum (fun a -> sum (fun (op, dt) -> if op = Night then dt else 0.0) a.ops) accts
      -. sum (fun l -> (Layer.totals replay l).Layer.secs) volume_layers)
      *. 1e6 /. vols
  in
  let replay_ms = List.concat_map (fun a -> a.replay_ms) accts in
  let p50 = if replay_ms = [] then 0.0 else Stats.percentile replay_ms 500 in
  (* [min_traced] gives the replay at least 1000 volumes, so p99 has ten
     samples beyond it; a shorter sample reports the tail it supports. *)
  let tail =
    match Stats.tail replay_ms with
    | Some (p10, v) ->
      Printf.eprintf "perfbench: host ms per replayed volume: p50 %.3f, p%g %.3f (n=%d)\n%!" p50
        (fi p10 /. 10.0) v (List.length replay_ms);
      if p10 >= 990 then Stats.percentile replay_ms 990 else v
    | None -> 0.0
  in
  let wall_med xs = Stats.median (List.map Work.wall xs) in
  let frames = isum (fun a -> a.frames) accts in
  (* The event loop's self time is the work of callbacks with no probe of
     their own (a fleet volume runs whole inside its admission event), so
     it counts as unattributed, like the root frame. *)
  let attributed =
    sum (fun r -> if r.Prof.r_name = "sim.dispatch" then 0.0 else r.Prof.r_self_s) s.Prof.s_rows
  in
  with_units per_layer
    [
      ("wafl.mkfs.us_per_volume", per_volume Layer.mkfs 1e6);
      ("wafl.mkfs.alloc_kb_per_volume", alloc_kb Layer.mkfs);
      ("workload.populate.us_per_volume", per_volume Layer.populate 1e6);
      ("workload.populate.alloc_kb_per_volume", alloc_kb Layer.populate);
      ("core.backup_job.us_per_volume", per_volume Layer.backup_job 1e6);
      ("core.backup_job.alloc_kb_per_volume", alloc_kb Layer.backup_job);
      ("tape.serialize.us_per_volume", per_volume Layer.serialize 1e6);
      ("fleet.control.us_per_volume", control);
      ("fleet.volume.p50_ms", p50);
      ("fleet.volume.p99_ms", tail);
      ("workload.populate.s", setup_secs Layer.populate);
      ("workload.age.s", setup_secs Layer.age);
      ("wafl.mkfs.s", setup_secs Layer.mkfs);
      ("dump.file_header.self_ms", self_ms "dump.file_header");
      ("dump.files", counter "dump.file_headers");
      ("image.extent.self_ms", self_ms "image.extent");
      ("image.extents", counter "image.extents");
      ("tape.output.self_ms", self_ms "tape.output");
      ("tape.input.self_ms", self_ms "tape.input");
      ("tape.bytes_streamed", counter "tape.bytes_streamed");
      ("core.restore_logical.ms", main_ms Layer.restore_logical);
      ("core.restore_logical.alloc_per_byte", alloc_per_byte Layer.restore_logical (fun a -> a.lr_bytes));
      ("block.bytes_moved", ratio (fi (isum (fun a -> a.blk_bytes) accts)) t);
      ("block.seeks", ratio (fi (isum (fun a -> a.blk_seeks) accts)) t);
      ("core.restore_physical.ms", main_ms Layer.restore_physical);
      ("core.restore_physical.alloc_per_byte", alloc_per_byte Layer.restore_physical (fun a -> a.pr_bytes));
      ("net.frame.self_ms", self_ms "net.frame");
      ("net.frames", ratio (fi frames) t);
      ("net.retransmit_ratio", ratio (fi (isum (fun a -> a.retransmits) accts)) (fi frames));
      ("workload.age.ms_per_day", ratio ((Layer.totals main Layer.age).Layer.secs *. 1e3) days);
      ("core.incremental.ms_per_day", ratio ((Layer.totals main Layer.incremental).Layer.secs *. 1e3) days);
      ("image.incremental_blocks", ratio (fi (isum (fun a -> a.incr_blocks) accts)) t);
      ("sched.interval.self_ms", self_ms "sched.interval");
      ("sim.solver.self_ms", self_ms "sim.solver");
      ("sim.dispatch.self_ms", self_ms "sim.dispatch");
      ("sim.events_dispatched", counter "sim.events_dispatched");
      ("gc.minor_collections", ratio (fi s.Prof.s_gc.Prof.g_minor_collections) t);
      ("gc.major_collections", ratio (fi s.Prof.s_gc.Prof.g_major_collections) t);
      ( "gc.promoted_mb",
        ratio (s.Prof.s_gc.Prof.g_promoted_words *. fi (Sys.word_size / 8) /. 1e6) t );
      ("trace.overhead_pct", (ratio (wall_med traced) (wall_med plain) -. 1.0) *. 100.0);
      ("trace.attributed_frac", ratio attributed s.Prof.s_wall_s);
    ]

(* Set-ups are spread over the whole run, not bunched before it: host
   speed drifts over tens of seconds, and set-ups taken throughout the
   run sample all of it, not the first few seconds. The first set-up's
   inputs are the ones iterated on; later ones are timed and dropped. *)
let max_setups = 25

let measure (module W : WORKLOAD) ~seed ~seconds ~trace =
  let setup_sink = Layer.sink () in
  let setup_budget = 0.1 *. seconds in
  let setup_s = ref [] and setup_spent = ref 0.0 in
  let setup () =
    Gc.full_major ();
    let t0 = Work.now () in
    let built =
      if trace then Layer.with_sink setup_sink (fun () -> W.setup ~seed) else W.setup ~seed
    in
    let dt = Work.now () -. t0 in
    setup_s := dt :: !setup_s;
    setup_spent := !setup_spent +. dt;
    built
  in
  let state = W.freeze_state (setup ()) in
  (* Keep the set-up time spent so far in step with the run's clock. *)
  let setup_due elapsed =
    List.length !setup_s < max_setups
    && !setup_spent < setup_budget *. Float.min 1.0 (elapsed /. Float.max seconds 1e-9)
  in
  let main = Layer.sink () and replay = Layer.sink () in
  let prof = Prof.create () in
  let plain = ref [] and traced = ref [] in
  let min_plain, min_traced = if trace then (2, W.min_traced) else (3, 0) in
  let t_start = Work.now () in
  let i = ref 0 in
  while
    Work.now () -. t_start < seconds
    || List.length !plain < min_plain
    || List.length !traced < min_traced
  do
    let tr = trace && !i mod 2 = 1 in
    incr i;
    let acct =
      if tr then Work.fresh ~trace:(prof, main) ~replay_sink:replay () else Work.fresh ()
    in
    Gc.full_major ();
    W.iterate acct state;
    if tr then traced := acct :: !traced else plain := acct :: !plain;
    if setup_due (Work.now () -. t_start) then ignore (setup ())
  done;
  while List.length !setup_s < 3 do
    ignore (setup ())
  done;
  let setup_s = !setup_s in
  let all = !plain @ !traced in
  let digests = List.sort_uniq compare (List.map (fun a -> a.Work.digest) all) in
  let digest = List.hd digests in
  let pin = List.assoc_opt (W.name, seed) pinned in
  let digest_ok = List.length digests = 1 && Option.fold ~none:true ~some:(( = ) digest) pin in
  Printf.eprintf "perfbench: %s seed %d: %d setups, %d plain + %d traced iterations, tape digest %08x (%s)\n%!"
    W.name seed (List.length setup_s) (List.length !plain) (List.length !traced) digest
    (match pin, digest_ok with
     | _, false when List.length digests > 1 -> "MISMATCH between iterations"
     | Some d, false -> Printf.sprintf "MISMATCH, pinned %08x" d
     | Some _, true -> "matches pinned"
     | None, _ -> "not pinned for this seed");
  let walls = List.map Work.wall all in
  Printf.eprintf "perfbench: timed walls (s), in order: %s\n%!"
    (String.concat " " (List.rev_map (Printf.sprintf "%.4f") walls));
  (let a = List.hd all in
   Printf.eprintf "perfbench: bytes per iteration: logical backup %d, physical backup %d, logical restore %d, physical restore %d\n%!"
     a.Work.lb_bytes a.Work.pb_bytes a.Work.lr_bytes a.Work.pr_bytes;
   Printf.eprintf "perfbench: set-up times (s), in order: %s\n%!"
     (String.concat " " (List.rev_map (Printf.sprintf "%.4f") setup_s)));
  (if List.length walls >= 2 then
     let q1, q2, q3 = Stats.quartiles walls in
     Printf.eprintf "perfbench: timed wall min %.4f, quartiles %.4f %.4f %.4f s (n=%d); set-up best %.4f s (n=%d)\n%!"
       (List.fold_left Float.min infinity walls) q1 q2 q3 (List.length walls)
       (List.fold_left Float.min infinity setup_s) (List.length setup_s));
  let attempted = 1 + isum (fun a -> a.Work.attempted) all in
  let failed = (if digest_ok then 0 else 1) + isum (fun a -> a.Work.failed) all in
  let metrics =
    if trace then
      per_layer_metrics ~setup_sink ~setups:(List.length setup_s) ~main ~replay ~prof
        ~plain:!plain ~traced:!traced
    else end_to_end_metrics ~setup_s !plain
  in
  { correct = failed = 0; attempted; failed; metrics }

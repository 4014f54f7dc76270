(* fleet-night: one synthetic night of many small volumes through
   [Fleet.plan] + [Fleet.run], then a morning-after restore drill on every
   volume of it. Both are dominated by the fixed per-volume cost (mkfs,
   populate, engine set-up, tape serialization, scheduling, restore
   set-up), not by streaming bytes. The drill covers the whole night
   because per-byte rates of one small volume vary several-fold with its
   seed; over the night they average out.

   The night is sized for many short iterations rather than a few long
   ones: each timed operation is taken at its best over the iterations,
   and on a shared host that best is steady only with a few dozen
   samples. Volumes of 40 KB rather than 20 KB hold several files each,
   so the night's bytes vary less from seed to seed.

   For the same reason the night's volumes run as [shifts] consecutive
   [Fleet.run]s over equal slices of one spec, each on the full fleet of
   hosts, drives and tenants. Each shift is its own timed operation, so
   the harness takes the best time of each short shift; the best of one
   long call is hit by whatever slowed the host during it. *)

open Work
module Fleet = Repro_fleet.Fleet
module Spec = Fleet.Spec
module Generator = Repro_workload.Generator
module Tapeio = Repro_tape.Tapeio

let name = "fleet-night"
let volumes = 100
let bytes_per_volume = 40_000
let shifts = 10

(* A traced run replays enough nights for a p99 with ten samples beyond. *)
let min_traced = (1000 + volumes - 1) / volumes

(* The volume [Fleet.run] builds for a spec volume: the same geometry and
   workload profile its per-volume execution uses, so a replay through
   the public calls writes the same tape bytes. *)
let data_blocks bytes = Stdlib.max 2048 (bytes / 2048)

let profile seed =
  {
    Generator.default with
    Generator.seed;
    median_file_bytes = 4096.0;
    files_per_dir = 4;
    dirs_per_dir = 2;
    max_depth = 2;
  }

let geometry (v : Spec.volume) = Volume.small_geometry ~data_blocks:(data_blocks v.Spec.v_bytes)

let build (v : Spec.volume) =
  let vol, fs =
    Layer.time Layer.mkfs (fun () ->
        let vol = Volume.create ~label:v.Spec.v_filer (geometry v) in
        (vol, Fs.mkfs vol))
  in
  ignore
    (Layer.time Layer.populate (fun () ->
         Generator.populate ~profile:(profile v.Spec.v_seed) ~fs ~root:"/data"
           ~total_bytes:v.Spec.v_bytes ()));
  (vol, fs)

(* One volume the way the night runs it: build, logical dump to a fresh
   stacker, serialize the stacker. Returns the tape CRC. *)
let replay_volume (v : Spec.volume) =
  let _, fs = build v in
  let lib = Library.create ~slots:4 ~label:v.Spec.v_name () in
  ignore
    (Layer.time Layer.backup_job (fun () ->
         let eng = Engine.create ~fs ~libraries:[ lib ] () in
         Engine.backup_job eng
           (Engine.Job.make ~strategy:Strategy.Logical ~subtree:"/data"
              ~label:v.Spec.v_name ())));
  Layer.time Layer.serialize (fun () -> tape_crc lib)

(* Volume name to tape CRC, with each volume's host milliseconds. *)
let replay order =
  let crcs = Hashtbl.create (List.length order) in
  let ms =
    List.map
      (fun (v : Spec.volume) ->
        let crc, dt = clock (fun () -> replay_volume v) in
        Hashtbl.replace crcs v.Spec.v_name crc;
        dt *. 1e3)
      order
  in
  (crcs, ms)

let spec ~seed ~volumes =
  Spec.synth ~seed ~hosts:2 ~drives_per_host:4 ~tenants:4 ~bytes_per_volume ~volumes ()

let order plan = List.map (fun a -> a.Fleet.a_volume) plan.Fleet.p_assignments

(* The spec's volumes cut into [shifts] consecutive slices. Hosts and
   tenants round-robin over the volumes, so every slice uses all of them. *)
let split (s : Spec.t) =
  let n = List.length s.Spec.s_volumes in
  List.init shifts (fun k ->
      Spec.make ~seed:s.Spec.s_seed ~hosts:s.Spec.s_hosts ~tenants:s.Spec.s_tenants
        (List.filteri (fun i _ -> i * shifts / n = k) s.Spec.s_volumes))

let night_order plans = List.concat_map order plans

(* Every [verify_every]-th volume of the drill has its restores checked
   like the single-volume workloads'. Checking all of them would cost
   more than the drill itself and leave few iterations in a run. *)
let verify_every = 10

let checked plans = List.filteri (fun i _ -> i mod verify_every = 0) (night_order plans)

type built = { plans : Fleet.plan list; sources : (Spec.volume * Volume.t) list }

type state = {
  s_plans : Fleet.plan list;  (** the night's shifts, in running order *)
  s_sources : (string * string) list;  (** checked volume name to its frozen image *)
  s_replay : (string, int) Hashtbl.t Lazy.t;
}

let setup ~seed =
  let plans = List.map Fleet.plan (split (spec ~seed ~volumes)) in
  { plans; sources = List.map (fun v -> (v, fst (build v))) (checked plans) }

let freeze_state b =
  {
    s_plans = b.plans;
    s_sources = List.map (fun ((v : Spec.volume), vol) -> (v.Spec.v_name, freeze vol)) b.sources;
    s_replay = lazy (fst (replay (night_order b.plans)));
  }

(* The morning after, for one volume: restore last night's own tape of it
   into a fresh file system, then take a physical image of the restored
   file system and restore that onto a fresh volume. Returns the restored
   file system, the imaged volume and the CRC of the drill's tape. *)
let drill acct (v : Spec.volume) tape =
  let lvol, lfs = restore_target ~label:"ldst" (geometry v) in
  let pvol = Volume.create ~label:"pdst" (geometry v) in
  let lib = Library.create ~slots:4 ~label:("drill-" ^ v.Spec.v_name) () in
  note_logical_restore acct
    (timed acct Logical_restore (fun () ->
         Layer.time Layer.restore_logical (fun () ->
             let session = Restore.session ~fs:lfs ~target:"/data" () in
             [ Restore.apply session (Tapeio.source (Library.load (Serde.reader tape))) ])));
  note_block_stats acct lvol;
  let eng = Engine.create ~fs:lfs ~libraries:[ lib ] () in
  ignore (backup acct eng (Engine.Job.make ~strategy:Strategy.Physical ()));
  restore_physical acct eng ~label:"/" ~volume:pvol;
  (lfs, pvol, tape_crc lib)

let iterate acct st =
  let reports =
    List.map
      (fun plan -> fst (timed acct Night (fun () -> Fleet.run ~keep_tapes:true plan)))
      st.s_plans
  in
  let night_order = night_order st.s_plans in
  let planned = List.length night_order in
  let completed = List.concat_map (fun r -> r.Fleet.rp_completed) reports in
  acct.attempted <- acct.attempted + planned;
  acct.volumes <- List.length completed;
  acct.lb_bytes <- acct.lb_bytes + List.fold_left (fun a r -> a + r.Fleet.rp_bytes) 0 reports;
  expect acct "every volume completed"
    (List.for_all (fun r -> r.Fleet.rp_failed = [] && r.Fleet.rp_unran = []) reports
    && acct.volumes = planned);
  let crcs =
    match acct.replay_sink with
    | None -> Lazy.force st.s_replay
    | Some sink ->
      let crcs, ms = Layer.with_sink sink (fun () -> replay night_order) in
      acct.replayed <- acct.replayed + List.length ms;
      acct.replay_ms <- ms @ acct.replay_ms;
      crcs
  in
  let night = Hashtbl.create planned in
  List.iter
    (fun (c : Fleet.Status.completed) ->
      let name = c.Fleet.Status.c_volume in
      Hashtbl.replace night name c.Fleet.Status.c_tape_crc;
      expect acct ("tape CRC of " ^ name ^ " equals its replay")
        (Hashtbl.find_opt crcs name = Some c.Fleet.Status.c_tape_crc))
    completed;
  let tapes = List.concat_map (fun r -> r.Fleet.rp_tapes) reports in
  acct.digest <-
    List.fold_left
      (fun acc (v : Spec.volume) ->
        let name = v.Spec.v_name in
        match (Hashtbl.find_opt night name, List.assoc_opt name tapes) with
        | Some crc, Some tape ->
          let lfs, pvol, drill_crc = drill acct v tape in
          Option.iter
            (fun image ->
              let src = (Fs.mount (thaw image), "/data") in
              verify_logical acct ~src ~dst:(lfs, "/data");
              verify_physical acct ~src pvol)
            (List.assoc_opt name st.s_sources);
          fold_digest (fold_digest acc crc) drill_crc
        | _ -> acc)
      0 night_order

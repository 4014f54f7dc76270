(* Tests for the replication/DR plane: one-hop and cascading sync over
   the real session transport, the replica state machine, schedule-driven
   catch-up, partition-interrupt-resume, failover with measured RPO/RTO,
   resync-after-partition via the common snapshot boundary, the RPL1
   on-disk round trip, and the fault-storm determinism property. *)

module Repl = Repro_repl.Repl
module Fault = Repro_fault.Fault
module Fs = Repro_wafl.Fs
module Volume = Repro_block.Volume
module Raid = Repro_block.Raid
module Disk = Repro_block.Disk
module Link = Repro_net.Link
module Generator = Repro_workload.Generator
module Compare = Repro_workload.Compare
module Serde = Repro_util.Serde
module Persist = Repro_block.Persist
module Clock = Repro_sim.Clock
module Obs = Repro_obs.Obs
module Analysis = Repro_obs.Analysis

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let ok_or_fail what = function
  | Ok () -> ()
  | Error ds -> Alcotest.failf "%s: %s" what (String.concat "; " ds)

let fresh_primary ?(seed = 11) ?(bytes = 400_000) () =
  let vol =
    Volume.create ~label:"A" (Volume.small_geometry ~data_blocks:4096)
  in
  let fs = Fs.mkfs vol in
  let profile = { Generator.default with Generator.seed } in
  ignore (Generator.populate ~profile ~fs ~root:"/data" ~total_bytes:bytes ());
  fs

(* Deterministic churn: overwrite/create one file per round. *)
let churn fs i =
  let path = Printf.sprintf "/data/churn.%d" i in
  (match Fs.lookup fs path with
  | Some _ -> ()
  | None -> ignore (Fs.create fs path ~perms:0o644));
  Fs.write fs path ~offset:0 (String.make 20_000 (Char.chr (65 + (i mod 26))))

let stat t name =
  List.find (fun s -> s.Repl.st_name = name) (Repl.status t)

let small_link = Link.params ~mtu_bytes:8192 ()

(* ----------------------------- one hop ------------------------------ *)

let test_one_hop () =
  let fs = fresh_primary () in
  let t = Repl.create ~primary:"A" fs in
  Repl.add_replica t ~upstream:"A" ~name:"B" ();
  checkb "starts uninitialized" true
    ((stat t "B").Repl.st_state = Repl.Uninitialized);
  ignore (Repl.checkpoint t);
  (match Repl.sync t ~name:"B" with
  | [ x ] ->
    checkb "full transfer" true (x.Repl.xfer_kind = `Full);
    checkb "bytes on the wire" true (x.Repl.xfer_payload_bytes > 0);
    checkb "wire time accounted" true (x.Repl.xfer_wire_s > 0.0);
    checkb "apply time accounted" true (x.Repl.xfer_apply_s > 0.0)
  | xs -> Alcotest.failf "expected one transfer, got %d" (List.length xs));
  ok_or_fail "after init" (Repl.verify t ~name:"B");
  checkb "in sync" true ((stat t "B").Repl.st_state = Repl.In_sync);
  checkb "lag zero" true (Repl.lag_s t ~name:"B" = 0.0);
  (* an incremental ships only the difference *)
  churn fs 1;
  Clock.advance (Repl.clock t) 60.0;
  ignore (Repl.checkpoint t);
  checkb "lag accrues" true (Repl.lag_s t ~name:"B" >= 60.0);
  (match Repl.sync t ~name:"B" with
  | [ x ] ->
    checkb "incremental" true (x.Repl.xfer_kind = `Incremental);
    checkb "cheaper than full" true (x.Repl.xfer_payload_bytes < 300_000)
  | xs -> Alcotest.failf "expected one transfer, got %d" (List.length xs));
  ok_or_fail "after update" (Repl.verify t ~name:"B");
  (* the replica mounts as the source, snapshots and all *)
  let bfs = Repl.fs t ~name:"B" in
  checkb "replica readable" true
    (Fs.read bfs "/data/churn.1" ~offset:0 ~len:5 = "BBBBB");
  match Compare.trees ~src:(fs, "/data") ~dst:(bfs, "/data") () with
  | Ok () -> ()
  | Error ds -> Alcotest.failf "trees differ: %s" (String.concat "; " ds)

(* --------------------------- cascade + schedule ---------------------- *)

let test_cascade_schedule () =
  let fs = fresh_primary () in
  let t = Repl.create ~primary:"A" fs in
  Repl.add_replica t ~upstream:"A" ~name:"B" ~interval_s:60.0 ();
  Repl.add_replica t ~upstream:"B" ~name:"C" ~interval_s:120.0 ();
  checks "cascade upstream" "B"
    (match (stat t "C").Repl.st_upstream with Some u -> u | None -> "?");
  churn fs 1;
  let failures = Repl.run_until t 600.0 in
  checki "no failures" 0 (List.length failures);
  checkb "clock at horizon" true (Clock.now (Repl.clock t) >= 600.0);
  checkb "B in sync" true ((stat t "B").Repl.st_state = Repl.In_sync);
  checkb "C in sync" true ((stat t "C").Repl.st_state = Repl.In_sync);
  checkb "C caught up through B" true (Repl.lag_s t ~name:"C" = 0.0);
  ok_or_fail "B" (Repl.verify t ~name:"B");
  ok_or_fail "C" (Repl.verify t ~name:"C")

(* ------------------------- checkpoint retirement --------------------- *)

(* 30 checkpoints in 1800 s, against a 20-slot snapshot table: the
   primary retires its oldest checkpoint once every replica is past it. *)
let repl_snapshots fs =
  List.filter (fun (s : Fs.snap_info) -> contains s.Fs.name "repl.") (Fs.snapshots fs)

let test_retire_one_replica () =
  let fs = fresh_primary () in
  let t = Repl.create ~primary:"A" fs in
  Repl.add_replica t ~upstream:"A" ~name:"B" ~interval_s:60.0 ();
  churn fs 1;
  let failures = Repl.run_until t 1800.0 in
  checki "no failures" 0 (List.length failures);
  checkb "B in sync" true ((stat t "B").Repl.st_state = Repl.In_sync);
  let names fs = List.sort compare (List.map (fun (s : Fs.snap_info) -> s.Fs.name) (repl_snapshots fs)) in
  let newest = List.sort compare (List.init 20 (fun i -> Printf.sprintf "repl.%d" (i + 11))) in
  Alcotest.(check (list string)) "the newest 20 kept" newest (names fs);
  Alcotest.(check (list string)) "B dropped the retired ones too" newest (names (Repl.fs t ~name:"B"));
  ok_or_fail "B" (Repl.verify t ~name:"B")

(* A cascade retires only what the replica furthest behind is past; a
   replica that has not synced since a retirement still verifies. *)
let test_retire_cascade () =
  let fs = fresh_primary () in
  let t = Repl.create ~primary:"A" fs in
  Repl.add_replica t ~upstream:"A" ~name:"B" ~interval_s:60.0 ();
  Repl.add_replica t ~upstream:"B" ~name:"C" ~interval_s:120.0 ();
  churn fs 1;
  checki "no failures to 1500 s" 0 (List.length (Repl.run_until t 1500.0));
  checkb "C behind B" true (Repl.lag_s t ~name:"C" > 0.0);
  ok_or_fail "C behind" (Repl.verify t ~name:"C");
  checki "no failures to 1800 s" 0 (List.length (Repl.run_until t 1800.0));
  checkb "B in sync" true ((stat t "B").Repl.st_state = Repl.In_sync);
  checkb "C in sync" true ((stat t "C").Repl.st_state = Repl.In_sync);
  ok_or_fail "B" (Repl.verify t ~name:"B");
  ok_or_fail "C" (Repl.verify t ~name:"C")

(* A replica that never moves pins its checkpoint and everything newer:
   nothing qualifies, so a full table fails the checkpoint as before. *)
let test_retire_blocked () =
  let fs = fresh_primary () in
  let t = Repl.create ~primary:"A" fs in
  Repl.add_replica t ~upstream:"A" ~name:"B" ~interval_s:60.0 ();
  Repl.add_replica t ~upstream:"A" ~name:"C" ();
  ignore (Repl.checkpoint t);
  ignore (Repl.sync t ~name:"C");
  let pinned = Option.get (stat t "C").Repl.st_last in
  let failures = Repl.run_until t 1800.0 in
  checkb "full table fails" true (failures <> []);
  List.iter
    (function
      | "B", Fs.Error m -> checkb "too many snapshots" true (contains m "too many snapshots")
      | who, ex -> Alcotest.failf "%s: %s" who (Printexc.to_string ex))
    failures;
  checkb "C's checkpoint kept" true
    (List.exists (fun (s : Fs.snap_info) -> s.Fs.name = pinned) (Fs.snapshots fs));
  ignore (Repl.sync t ~name:"C");
  ok_or_fail "C" (Repl.verify t ~name:"C")

(* An interval must be a finite number of seconds, 0 or more: NaN and
   infinity once put an edge on a schedule that never fired. *)
let test_rejects_non_finite_interval () =
  let t = Repl.create ~primary:"A" (fresh_primary ()) in
  List.iter
    (fun interval_s ->
      match Repl.add_replica t ~upstream:"A" ~name:"B" ~interval_s () with
      | () -> Alcotest.failf "interval %g accepted" interval_s
      | exception Repl.Error _ -> ())
    [ Float.nan; Float.infinity; Float.neg_infinity; -1.0 ];
  checki "no replica added" 1 (List.length (Repl.status t))

(* At 1e6 s the float spacing is about 1.2e-10 s, so a 1e-12 s interval
   leaves the edge due at the same instant for ever; [run_until] fires it
   once, reports it, and reaches its horizon instead of spinning. *)
let test_stalled_schedule_reported () =
  let t = Repl.create ~primary:"A" (fresh_primary ()) in
  Clock.advance_to (Repl.clock t) 1e6;
  Repl.add_replica t ~upstream:"A" ~name:"B" ~interval_s:1e-12 ();
  let failures = Repl.run_until t (1e6 +. 10.) in
  (match failures with
  | [ ("B", Repl.Error m) ] -> checkb "names the stall" true (contains m "stalls")
  | _ -> Alcotest.failf "want one stall failure for B, got %d failures" (List.length failures));
  checkb "B synced once" true ((stat t "B").Repl.st_state = Repl.In_sync);
  checkb "clock at horizon" true (Clock.now (Repl.clock t) = 1e6 +. 10.)

(* --------------------- partition mid-transfer + resume --------------- *)

let test_partition_resume () =
  let fs = fresh_primary () in
  let t = Repl.create ~primary:"A" fs in
  Repl.add_replica t ~upstream:"A" ~name:"B" ~params:small_link ();
  ignore (Repl.checkpoint t);
  ignore (Repl.sync t ~name:"B");
  let before = (stat t "B").Repl.st_last in
  churn fs 1;
  churn fs 2;
  ignore (Repl.checkpoint t);
  let plane =
    Fault.plan [ Fault.Link_partition { device = "B"; after_frames = 8 } ]
  in
  (match
     Fault.with_armed plane (fun () -> Repl.sync t ~name:"B")
   with
  | _ -> Alcotest.fail "expected a partition"
  | exception Fault.Partitioned d -> checks "partitioned device" "B" d);
  checkb "partition journalled" true
    (List.exists (fun l -> contains l "net-partition") (Fault.journal_lines plane));
  (* consistent at the last completed snapshot *)
  checkb "still at previous snapshot" true ((stat t "B").Repl.st_last = before);
  ok_or_fail "survives interrupted transfer" (Repl.verify t ~name:"B");
  (* heal, resume: picks up from the last completed snapshot *)
  Fault.revive plane ~device:"B";
  let xs = Fault.with_armed plane (fun () -> Repl.sync t ~name:"B") in
  checkb "resumed incrementally" true
    (xs <> [] && List.for_all (fun x -> x.Repl.xfer_kind = `Incremental) xs);
  checkb "in sync after heal" true ((stat t "B").Repl.st_state = Repl.In_sync);
  ok_or_fail "after resume" (Repl.verify t ~name:"B")

(* ------------------------ snapshot-gap fallback ---------------------- *)

let test_snapshot_gap_fallback () =
  let fs = fresh_primary () in
  let t = Repl.create ~primary:"A" fs in
  Repl.add_replica t ~upstream:"A" ~name:"B" ();
  let cp1 = Repl.checkpoint t in
  ignore (Repl.sync t ~name:"B");
  churn fs 1;
  ignore (Repl.checkpoint t);
  churn fs 2;
  ignore (Repl.checkpoint t);
  (* the replica's base vanishes on the source *)
  Fs.snapshot_delete fs cp1;
  (match Repl.sync t ~name:"B" with
  | _ -> Alcotest.fail "expected a snapshot gap"
  | exception Repl.Snapshot_gap { node; base } ->
    checks "gap node" "B" node;
    checks "gap base" cp1 base);
  (* resync falls back to a full transfer and lands in sync *)
  (match Repl.resync t ~name:"B" with
  | [ x ] -> checkb "full fallback" true (x.Repl.xfer_kind = `Full)
  | xs -> Alcotest.failf "expected one transfer, got %d" (List.length xs));
  checkb "in sync" true ((stat t "B").Repl.st_state = Repl.In_sync);
  ok_or_fail "after gap resync" (Repl.verify t ~name:"B")

(* ------------------------------ DR drill ----------------------------- *)

(* The acceptance drill: a 3-node cascade under a storm — the A→B edge
   partitions mid-incremental and C's disks die mid-apply — then fail
   over to B, keep writing, heal everything, resync both survivors, and
   demand byte-identical snapshots everywhere plus a finite measured
   RPO/RTO in the trace. *)
let test_dr_drill () =
  let clk = Clock.create () in
  let obs = Obs.create ~clock:clk () in
  let fs = fresh_primary () in
  let t = Repl.create ~clock:clk ~primary:"A" fs in
  let p =
    Obs.with_armed obs (fun () ->
        Repl.add_replica t ~upstream:"A" ~name:"B" ~params:small_link
          ~interval_s:60.0 ();
        Repl.add_replica t ~upstream:"B" ~name:"C" ~params:small_link
          ~interval_s:60.0 ();
        ignore (Repl.run_until t 120.0);
        checkb "B in sync before storm" true
          ((stat t "B").Repl.st_state = Repl.In_sync);
        churn fs 1;
        churn fs 2;
        (* The A→B edge survives one more incremental — 14 frames, so C
           pulls it and its drives die mid-apply at 180 s — then
           partitions mid-way through the 240 s transfer (frames
           15–22). *)
        let plane =
          Fault.plan ~seed:3
            [
              Fault.Link_partition { device = "B"; after_frames = 18 };
              Fault.Disk_death { device = "C.rg0.d0"; after_ios = 5 };
              Fault.Disk_death { device = "C.rg0.d1"; after_ios = 5 };
            ]
        in
        let failures =
          Fault.with_armed plane (fun () -> Repl.run_until t 400.0)
        in
        checkb "the storm broke replication" true (failures <> []);
        checkb "partition hit the edge" true
          (List.exists
             (fun (n, e) ->
               n = "B" && match e with Fault.Partitioned _ -> true | _ -> false)
             failures);
        checkb "destination drive death broke C" true
          (List.exists (fun (n, _) -> n = "C") failures);
        checkb "C lost its volume" true
          ((stat t "C").Repl.st_state = Repl.Uninitialized);
        (* fail over to the surviving replica *)
        let p = Repl.promote t ~name:"B" in
        checks "promoted" "B" p.Repl.promoted;
        checks "new primary" "B" (Repl.primary t);
        checkb "old primary diverged" true
          ((stat t "A").Repl.st_state = Repl.Diverged);
        (* life goes on at the DR site *)
        let bfs = Repl.fs t ~name:"B" in
        churn bfs 3;
        ignore (Repl.checkpoint t);
        (* heal the partition and the dead drives *)
        Fault.revive plane ~device:"B";
        Array.iter
          (fun rg ->
            Array.iter
              (fun d -> if Disk.failed d then Disk.revive d)
              (Raid.disks rg))
          (Volume.raid_groups (Repl.volume t ~name:"C"));
        (* resync both survivors against the new primary *)
        let xs_a = Fault.with_armed plane (fun () -> Repl.resync t ~name:"A") in
        checkb "old primary resyncs from the common boundary" true
          (xs_a <> []
          && List.for_all (fun x -> x.Repl.xfer_kind = `Incremental) xs_a);
        let xs_c = Fault.with_armed plane (fun () -> Repl.resync t ~name:"C") in
        checkb "dead replica rebuilt in full" true
          (match xs_c with [ x ] -> x.Repl.xfer_kind = `Full | _ -> false);
        checkb "A in sync" true ((stat t "A").Repl.st_state = Repl.In_sync);
        checkb "C in sync" true ((stat t "C").Repl.st_state = Repl.In_sync);
        (* any-point-in-time: every snapshot byte-identical to the source *)
        ok_or_fail "A matches new primary" (Repl.verify t ~name:"A");
        ok_or_fail "C matches new primary" (Repl.verify t ~name:"C");
        (match
           Compare.trees
             ~src:(Repl.fs t ~name:"B", "/data")
             ~dst:(Repl.fs t ~name:"A", "/data")
             ()
         with
        | Ok () -> ()
        | Error ds ->
          Alcotest.failf "active trees differ: %s" (String.concat "; " ds));
        p)
  in
  checkb "rpo finite" true (Float.is_finite p.Repl.rpo_s && p.Repl.rpo_s >= 0.0);
  checkb "rto positive and finite" true
    (Float.is_finite p.Repl.rto_s && p.Repl.rto_s > 0.0);
  (* the drill's numbers are in the trace for the analysis plane *)
  match Analysis.dr obs with
  | None -> Alcotest.fail "no DR summary in the trace"
  | Some d ->
    checkb "trace rpo matches" true (d.Analysis.dr_rpo_s = p.Repl.rpo_s);
    checkb "trace rto matches" true (d.Analysis.dr_rto_s = p.Repl.rto_s);
    checkb "lag series recorded" true
      (List.mem_assoc "B" d.Analysis.dr_lag
      && List.mem_assoc "C" d.Analysis.dr_lag);
    checkb "dr json renders" true
      (String.length (Analysis.dr_to_json d) > 0)

(* --------------------------- RPL1 round trip ------------------------- *)

let test_rpl1_roundtrip () =
  let fs = fresh_primary () in
  let t = Repl.create ~primary:"A" fs in
  Repl.add_replica t ~upstream:"A" ~name:"B" ~interval_s:60.0 ();
  ignore (Repl.checkpoint t);
  ignore (Repl.sync t ~name:"B");
  churn fs 1;
  ignore (Repl.checkpoint t);
  let w = Serde.writer () in
  Repl.save w t;
  let t2 = Repl.load (Serde.reader (Serde.contents w)) ~primary_fs:fs in
  checks "primary survives" (Repl.primary t) (Repl.primary t2);
  checkb "clock survives" true
    (Clock.now (Repl.clock t2) = Clock.now (Repl.clock t));
  List.iter2
    (fun a b ->
      checks "node" a.Repl.st_name b.Repl.st_name;
      checkb "state" true (a.Repl.st_state = b.Repl.st_state);
      checkb "last" true (a.Repl.st_last = b.Repl.st_last);
      checkb "upstream" true (a.Repl.st_upstream = b.Repl.st_upstream);
      checkb "lag" true (a.Repl.st_lag_s = b.Repl.st_lag_s))
    (Repl.status t) (Repl.status t2);
  (* the reloaded topology keeps replicating *)
  ignore (Repl.sync t2 ~name:"B");
  ok_or_fail "after reload" (Repl.verify t2 ~name:"B");
  (* bad magic is refused *)
  match Repl.load (Serde.reader "RPLX-not-a-topology") ~primary_fs:fs with
  | _ -> Alcotest.fail "expected Corrupt"
  | exception Serde.Corrupt _ -> ()

(* A schedule interval that is negative or not finite is refused on load
   as it is by [add_replica]. The edge's 61.25 s interval is the image's
   one f64 61.25 (it is first due at 1061.25 s). *)
let test_rpl1_refuses_bad_interval () =
  let fs = fresh_primary () in
  let t = Repl.create ~primary:"A" fs in
  Clock.advance_to (Repl.clock t) 1000.0;
  Repl.add_replica t ~upstream:"A" ~name:"B" ~interval_s:61.25 ();
  let float_bytes f =
    let w = Serde.writer () in
    Serde.write_float w f;
    Serde.contents w
  in
  let image =
    let w = Serde.writer () in
    Repl.save w t;
    Serde.contents w
  in
  let interval = float_bytes 61.25 in
  let at =
    List.filter
      (fun i -> String.sub image i 8 = interval)
      (List.init (String.length image - 7) Fun.id)
  in
  checki "one 61.25 in the image" 1 (List.length at);
  let i = List.hd at in
  List.iter
    (fun bad ->
      let patched =
        String.sub image 0 i ^ float_bytes bad
        ^ String.sub image (i + 8) (String.length image - i - 8)
      in
      match Repl.load (Serde.reader patched) ~primary_fs:fs with
      | _ -> Alcotest.failf "interval %g loaded" bad
      | exception Serde.Corrupt _ -> ())
    [ Float.nan; Float.infinity; -61.25 ]

(* ---------------------- fault-storm determinism ---------------------- *)

(* The same seed over a 3-node cascade with loss + flap + partition specs
   must yield byte-identical replica volumes and identical fault
   journals across runs. *)
let storm_run seed =
  let vol =
    Volume.create ~label:"A" (Volume.small_geometry ~data_blocks:4096)
  in
  let fs = Fs.mkfs vol in
  let profile = { Generator.default with Generator.seed = 5 } in
  ignore
    (Generator.populate ~profile ~fs ~root:"/data" ~total_bytes:300_000 ());
  let t = Repl.create ~primary:"A" fs in
  Repl.add_replica t ~upstream:"A" ~name:"B" ~params:small_link
    ~interval_s:60.0 ();
  Repl.add_replica t ~upstream:"B" ~name:"C" ~params:small_link
    ~interval_s:90.0 ();
  let plane =
    Fault.plan ~seed
      [
        Fault.Packet_loss { device = "B"; losses = 20; prob = 0.05 };
        Fault.Link_flap { device = "C"; after_frames = 40; down_frames = 5 };
        Fault.Link_partition { device = "B"; after_frames = 220 };
      ]
  in
  Fault.with_armed plane (fun () ->
      ignore (Repl.run_until t 120.0);
      churn fs 1;
      ignore (Repl.run_until t 300.0));
  Fault.revive plane ~device:"B";
  Fault.with_armed plane (fun () ->
      (try ignore (Repl.sync t ~name:"B") with _ -> ());
      (try ignore (Repl.sync t ~name:"C") with _ -> ()));
  let bytes name =
    let w = Serde.writer () in
    Persist.write w (Repl.volume t ~name);
    Serde.contents w
  in
  (bytes "B" ^ bytes "C", Fault.journal_lines plane)

let test_storm_determinism =
  QCheck.Test.make ~count:3 ~name:"fault-storm cascade is deterministic"
    QCheck.(int_range 1 1000)
    (fun seed ->
      let v1, j1 = storm_run seed in
      let v2, j2 = storm_run seed in
      String.equal v1 v2 && j1 = j2)

(* ------------------------------ suite -------------------------------- *)

let q = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "repl"
    [
      ( "sync",
        [
          Alcotest.test_case "one hop: full then incremental" `Quick
            test_one_hop;
          Alcotest.test_case "cascade on the schedule" `Quick
            test_cascade_schedule;
          Alcotest.test_case "non-finite interval refused" `Quick
            test_rejects_non_finite_interval;
          Alcotest.test_case "stalled schedule reported" `Quick
            test_stalled_schedule_reported;
        ] );
      ( "retire",
        [
          Alcotest.test_case "one replica past the snapshot limit" `Quick
            test_retire_one_replica;
          Alcotest.test_case "cascade past the snapshot limit" `Quick
            test_retire_cascade;
          Alcotest.test_case "a pinned checkpoint blocks retirement" `Quick
            test_retire_blocked;
        ] );
      ( "faults",
        [
          Alcotest.test_case "partition mid-transfer, heal, resume" `Quick
            test_partition_resume;
          Alcotest.test_case "snapshot gap falls back to full" `Quick
            test_snapshot_gap_fallback;
          Alcotest.test_case "DR drill: storm, promote, resync" `Quick
            test_dr_drill;
          q test_storm_determinism;
        ] );
      ( "persistence",
        [
          Alcotest.test_case "RPL1 round trip" `Quick test_rpl1_roundtrip;
          Alcotest.test_case "RPL1 refuses a bad interval" `Quick
            test_rpl1_refuses_bad_interval;
        ] );
    ]

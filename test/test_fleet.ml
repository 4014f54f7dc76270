(* Fleet control-plane tests: typed spec validation and parse errors,
   render/parse round-trips, plan determinism and queue ordering, the
   FLT1 fleet catalog, backup windows, tenant budget throttling, storm +
   resume recovery, and fleet.* obs coverage. The fleet-granularity
   byte-identity qcheck property lives with the differential suite
   (test_differential.ml). *)

module Fleet = Repro_fleet.Fleet
module Spec = Fleet.Spec
module Status = Fleet.Status
module Link = Repro_net.Link
module Serde = Repro_util.Serde
module Obs = Repro_obs.Obs
module Analysis = Repro_obs.Analysis
module Slo = Repro_obs.Slo

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let host ?(drives = 2) name =
  { Spec.h_name = name; h_drives = drives; h_link = Link.default_params }

let tenant ?(budget = 64e6) name =
  { Spec.t_name = name; t_budget_bytes_s = budget }

let volume ?(host = "vault0") ?(tenant = "eng") ?(filer = "f0")
    ?(bytes = 10_000) ?(priority = 0) ?(window = 0.0) ?(deadline = 0.0)
    ?(seed = 1) name =
  {
    Spec.v_name = name;
    v_host = host;
    v_tenant = tenant;
    v_filer = filer;
    v_bytes = bytes;
    v_priority = priority;
    v_window_s = window;
    v_deadline_s = deadline;
    v_seed = seed;
  }

(* ----------------------------- the spec ------------------------------ *)

let expects err thunk =
  match thunk () with
  | (_ : Spec.t) -> Alcotest.failf "expected %s" (Spec.error_message err)
  | exception Spec.Invalid e ->
    checks "typed spec error" (Spec.error_message err) (Spec.error_message e)

let test_spec_validation () =
  expects Spec.Empty_fleet (fun () -> Spec.make ~hosts:[] ~tenants:[] []);
  expects Spec.Empty_fleet (fun () ->
      Spec.make ~hosts:[ host "vault0" ] ~tenants:[] []);
  expects (Spec.Duplicate_name "v0") (fun () ->
      Spec.make ~hosts:[ host "vault0" ] ~tenants:[]
        [ volume ~tenant:"" "v0"; volume ~tenant:"" "v0" ]);
  (* names are unique across hosts, tenants and volumes together *)
  expects (Spec.Duplicate_name "vault0") (fun () ->
      Spec.make ~hosts:[ host "vault0" ] ~tenants:[ tenant "vault0" ]
        [ volume "v0" ]);
  expects (Spec.Unknown_host { volume = "v0"; host = "nowhere" }) (fun () ->
      Spec.make ~hosts:[ host "vault0" ] ~tenants:[]
        [ volume ~tenant:"" ~host:"nowhere" "v0" ]);
  expects (Spec.Unknown_tenant { volume = "v0"; tenant = "ghost" }) (fun () ->
      Spec.make ~hosts:[ host "vault0" ] ~tenants:[ tenant "eng" ]
        [ volume ~tenant:"ghost" "v0" ]);
  expects (Spec.Bad_value { name = "vault0"; field = "drives" }) (fun () ->
      Spec.make ~hosts:[ host ~drives:0 "vault0" ] ~tenants:[]
        [ volume ~tenant:"" "v0" ]);
  expects (Spec.Bad_value { name = "eng"; field = "budget" }) (fun () ->
      Spec.make ~hosts:[ host "vault0" ] ~tenants:[ tenant ~budget:0.0 "eng" ]
        [ volume "v0" ]);
  expects (Spec.Bad_value { name = "v0"; field = "bytes" }) (fun () ->
      Spec.make ~hosts:[ host "vault0" ] ~tenants:[ tenant "eng" ]
        [ volume ~bytes:0 "v0" ]);
  expects (Spec.Bad_value { name = "v0"; field = "priority" }) (fun () ->
      Spec.make ~hosts:[ host "vault0" ] ~tenants:[ tenant "eng" ]
        [ volume ~priority:(-1) "v0" ]);
  expects (Spec.Bad_value { name = "v0"; field = "window_s" }) (fun () ->
      Spec.make ~hosts:[ host "vault0" ] ~tenants:[ tenant "eng" ]
        [ volume ~window:(-1.0) "v0" ]);
  (* a tenant-less volume is fine: it just has no budget *)
  let s =
    Spec.make ~hosts:[ host "vault0" ] ~tenants:[] [ volume ~tenant:"" "v0" ]
  in
  checki "tenantless spec accepted" 1 (List.length s.Spec.s_volumes)

(* A NaN passes every [<]/[<=] check, and an infinite window never opens:
   every float field must be finite, whether the spec is built as
   records ([make]), by [synth], or parsed from text. Parsing a NaN or
   negative link rate or latency fails earlier, in [Link.params], as a
   parse error; every case is a [Spec.Invalid]. *)
let test_non_finite () =
  let link ?(bw = 2e6) ?(lat = 2e-4) () =
    { Link.default_params with Link.bandwidth_bytes_s = bw; latency_s = lat }
  in
  let made ?(h = host "vault0") ?(t = tenant "eng") ?(v = volume "v0") () =
    Spec.make ~hosts:[ h ] ~tenants:[ t ] [ v ]
  in
  let text ?(bw = "2") ?(lat = "0.2") ?(budget = "8") ?(window = "0")
      ?(deadline = "0") () =
    Printf.sprintf
      "fleet seed=1\nhost vault0 drives=2 link_mb_s=%s latency_ms=%s\n\
       tenant eng budget_mb_s=%s\n\
       volume v0 host=vault0 tenant=eng bytes=1000 window_s=%s deadline_s=%s\n"
      bw lat budget window deadline
  in
  let cases =
    [
      ( "vault0", "link_mb_s",
        (fun x -> made ~h:{ (host "vault0") with Spec.h_link = link ~bw:x () } ()),
        (fun x -> Spec.synth ~link:(link ~bw:x ()) ~volumes:2 ()),
        fun s -> text ~bw:s () );
      ( "vault0", "latency_ms",
        (fun x -> made ~h:{ (host "vault0") with Spec.h_link = link ~lat:x () } ()),
        (fun x -> Spec.synth ~link:(link ~lat:x ()) ~volumes:2 ()),
        fun s -> text ~lat:s () );
      ( "eng", "budget",
        (fun x -> made ~t:(tenant ~budget:x "eng") ()),
        (fun x -> Spec.synth ~budget_bytes_s:x ~volumes:2 ()),
        fun s -> text ~budget:s () );
      ( "v0", "window_s",
        (fun x -> made ~v:(volume ~window:x "v0") ()),
        (fun x -> Spec.synth ~window_every:1 ~window_s:x ~volumes:2 ()),
        fun s -> text ~window:s () );
      ( "v0", "deadline_s",
        (fun x -> made ~v:(volume ~deadline:x "v0") ()),
        (fun x -> Spec.synth ~deadline_every:1 ~deadline_s:x ~volumes:2 ()),
        fun s -> text ~deadline:s () );
    ]
  in
  (* the text template itself is valid *)
  checki "valid template" 1 (List.length (Spec.parse (text ())).Spec.s_volumes);
  List.iter
    (fun (name, field, make, synth, parse) ->
      List.iter
        (fun (x, lit) ->
          let what = Printf.sprintf "%s=%s" field lit in
          expects (Spec.Bad_value { name; field }) (fun () -> make x);
          (match synth x with
          | (_ : Spec.t) -> Alcotest.failf "synth accepted %s" what
          | exception Spec.Invalid _ -> ());
          match Spec.parse (parse lit) with
          | (_ : Spec.t) -> Alcotest.failf "parse accepted %s" what
          | exception Spec.Invalid _ -> ())
        [ (Float.nan, "nan"); (Float.infinity, "inf"); (Float.neg_infinity, "-inf") ])
    cases

let expects_parse ~line msg text =
  match Spec.parse text with
  | (_ : Spec.t) -> Alcotest.failf "expected parse error %S" msg
  | exception Spec.Invalid (Spec.Parse p) ->
    checki "error line" line p.line;
    checks "error message" msg p.msg
  | exception Spec.Invalid e ->
    Alcotest.failf "wrong error: %s" (Spec.error_message e)

let test_parse_errors () =
  expects_parse ~line:1 "unknown directive \"nonsense\"" "nonsense here";
  expects_parse ~line:2 "missing field bytes"
    "fleet seed=1\nvolume v0 host=vault0";
  expects_parse ~line:1 "field drives is not an integer"
    "host vault0 drives=many";
  expects_parse ~line:1 "expected key=value, got \"drives\""
    "host vault0 drives";
  expects_parse ~line:3 "field budget_mb_s is not a number"
    "fleet seed=1\n# comment\ntenant eng budget_mb_s=lots";
  expects_parse ~line:2 "link bandwidth must be positive (got 0 bytes/s)"
    "fleet seed=1\nhost vault0 drives=2 link_mb_s=0"

let test_render_parse_roundtrip () =
  let s =
    Spec.synth ~seed:5 ~volumes:9 ~hosts:2 ~tenants:3 ~bytes_per_volume:20_000
      ~window_every:4 ~window_s:1.5 ()
  in
  let s' = Spec.parse (Spec.render s) in
  checks "canonical form round-trips" (Spec.render s) (Spec.render s');
  checki "digest stable across round-trip" (Spec.digest s) (Spec.digest s');
  (* comments, optional fields and derived defaults *)
  let t =
    Spec.parse
      "fleet seed=3\nhost vault0 drives=2 # two LTO drives\n\
       volume a host=vault0 bytes=5000\n"
  in
  match t.Spec.s_volumes with
  | [ v ] ->
    checks "filer defaults to the volume name" "a" v.Spec.v_filer;
    checki "volume seed derives from the fleet seed" ((3 * 1_000_003) + 1)
      v.Spec.v_seed;
    checki "fleet seed parsed" 3 t.Spec.s_seed
  | _ -> Alcotest.fail "expected exactly one volume"

(* ------------------------------ planning ----------------------------- *)

let test_plan_ordering () =
  let spec =
    Spec.synth ~seed:2 ~volumes:12 ~hosts:2 ~drives_per_host:2 ~tenants:2
      ~window_every:5 ~window_s:2.0 ()
  in
  let key (a : Fleet.assignment) =
    (a.Fleet.a_volume.Spec.v_name, a.Fleet.a_ready)
  in
  let p1 = Fleet.plan spec and p2 = Fleet.plan spec in
  checkb "plan is deterministic" true
    (List.map key p1.Fleet.p_assignments = List.map key p2.Fleet.p_assignments);
  checki "every drive of every host has a slot" 4 (List.length p1.Fleet.p_slots);
  let rec sorted = function
    | a :: (b :: _ as rest) ->
      let k (x : Fleet.assignment) =
        ( x.Fleet.a_volume.Spec.v_priority,
          x.Fleet.a_ready,
          x.Fleet.a_volume.Spec.v_name )
      in
      k a <= k b && sorted rest
    | _ -> true
  in
  checkb "queue sorted by (priority, window, name)" true
    (sorted p1.Fleet.p_assignments);
  checkb "aggregate link bound is positive" true
    (Fleet.link_bound_bytes_s p1 > 0.0);
  List.iter
    (fun (a : Fleet.assignment) ->
      let hosts =
        List.filter_map
          (fun s -> List.assq_opt s p1.Fleet.p_slots)
          a.Fleet.a_slots
      in
      checkb
        (a.Fleet.a_volume.Spec.v_name ^ " candidate drives are its host's")
        true
        (hosts <> []
        && List.length hosts = List.length a.Fleet.a_slots
        && List.for_all (fun h -> h = a.Fleet.a_volume.Spec.v_host) hosts))
    p1.Fleet.p_assignments

(* --------------------------- the catalog ----------------------------- *)

let test_status_roundtrip () =
  let spec =
    Spec.synth ~seed:11 ~volumes:4 ~hosts:1 ~drives_per_host:2
      ~bytes_per_volume:8_000 ()
  in
  let report, status = Fleet.run (Fleet.plan spec) in
  checki "uninterrupted night completes everything" 4
    (List.length report.Fleet.rp_completed);
  checki "catalog names the spec" (Spec.digest spec) status.Status.st_digest;
  let w = Serde.writer () in
  Status.save w status;
  let status' = Status.load (Serde.reader (Serde.contents w)) in
  checkb "FLT1 round-trips" true (status = status');
  match Status.load (Serde.reader "NOPE") with
  | _ -> Alcotest.fail "expected Corrupt on a bad magic"
  | exception Serde.Corrupt _ -> ()

(* ------------------------ windows and budgets ------------------------ *)

let test_windows () =
  let spec =
    Spec.make ~seed:4 ~hosts:[ host ~drives:2 "vault0" ]
      ~tenants:[ tenant "eng" ]
      [
        volume ~bytes:6_000 ~seed:41 "a";
        volume ~bytes:6_000 ~seed:42 ~window:1.5 "b";
      ]
  in
  let report, _ = Fleet.run (Fleet.plan spec) in
  let find n =
    List.find (fun c -> c.Status.c_volume = n) report.Fleet.rp_completed
  in
  checkb "windowed volume starts no earlier than its window" true
    ((find "b").Status.c_started >= 1.5);
  checkb "immediate volume starts at time zero" true
    ((find "a").Status.c_started <= 1e-9)

let test_tenant_budget () =
  let night budget =
    let spec =
      Spec.synth ~seed:6 ~volumes:6 ~hosts:1 ~drives_per_host:3 ~tenants:1
        ~bytes_per_volume:20_000 ~budget_bytes_s:budget ()
    in
    let report, _ = Fleet.run (Fleet.plan spec) in
    report.Fleet.rp_elapsed
  in
  let tight = night 50_000.0 and loose = night 64e6 in
  checkb
    (Printf.sprintf "tight tenant budget stretches the night (%.1f vs %.1f s)"
       tight loose)
    true
    (tight > loose *. 2.0)

(* ------------------------- storms and resume ------------------------- *)

let test_storm_resume () =
  let spec =
    Spec.synth ~seed:9 ~volumes:8 ~hosts:2 ~drives_per_host:2 ~tenants:2
      ~bytes_per_volume:10_000 ()
  in
  let plan = Fleet.plan spec in
  let full, _ = Fleet.run ~keep_tapes:true plan in
  checki "uninterrupted night completes everything" 8
    (List.length full.Fleet.rp_completed);
  let storm =
    {
      Fleet.storm_after = 2;
      storm_drives = 2;
      storm_abort_after = Some 4;
      storm_seed = 3;
    }
  in
  let part, status = Fleet.run ~storm ~keep_tapes:true plan in
  checkb "the storm fails or strands some volumes" true
    (part.Fleet.rp_failed <> [] || part.Fleet.rp_unran <> []);
  let rest, status' = Fleet.run ~resume:status ~keep_tapes:true plan in
  checki "resume completes the rest of the night" 8
    (List.length status'.Status.st_completed);
  checkb "resume re-runs only the missing volumes" true
    (List.for_all
       (fun (c : Status.completed) ->
         not
           (List.exists
              (fun (c' : Status.completed) -> c'.Status.c_volume = c.Status.c_volume)
              part.Fleet.rp_completed))
       rest.Fleet.rp_completed);
  let combined = part.Fleet.rp_tapes @ rest.Fleet.rp_tapes in
  checki "every volume has exactly one tape across the two runs" 8
    (List.length combined);
  List.iter
    (fun (name, tape) ->
      checkb (name ^ " tape bytes identical after storm + resume") true
        (String.equal tape (List.assoc name combined)))
    full.Fleet.rp_tapes;
  (* a catalog from a different spec is refused *)
  let other = Spec.synth ~seed:10 ~volumes:8 () in
  match Fleet.run ~resume:status (Fleet.plan other) with
  | _ -> Alcotest.fail "expected Invalid_argument on a digest mismatch"
  | exception Invalid_argument _ -> ()

(* ---------------------------- obs plane ------------------------------ *)

let test_obs_gauges () =
  let spec =
    Spec.synth ~seed:13 ~volumes:4 ~hosts:1 ~drives_per_host:2 ~tenants:2
      ~bytes_per_volume:8_000 ()
  in
  let p = Obs.create () in
  let report, _ = Obs.with_armed p (fun () -> Fleet.run (Fleet.plan spec)) in
  let gauge n =
    match Obs.gauge_value p n with
    | Some v -> v
    | None -> Alcotest.failf "missing gauge %s" n
  in
  checki "fleet.volumes_completed gauge" 4
    (int_of_float (gauge "fleet.volumes_completed"));
  checki "fleet.volumes_failed gauge" 0
    (int_of_float (gauge "fleet.volumes_failed"));
  checkb "fleet.bytes gauge matches the report" true
    (int_of_float (gauge "fleet.bytes") = report.Fleet.rp_bytes);
  checkb "fleet.goodput gauge set" true (gauge "fleet.goodput_bytes_s" > 0.0);
  checkb "per-tenant goodput gauges set" true
    (gauge "fleet.tenant.t0.goodput_bytes_s" > 0.0
    && gauge "fleet.tenant.t1.goodput_bytes_s" > 0.0);
  checkb "fleet.volumes_done series recorded" true
    (List.length (Obs.series p "fleet.volumes_done") >= 4)

(* Names land in metric paths (fleet.tenant.<name>.goodput_bytes_s), so
   a dot or slash in a name would make the path ambiguous: typed
   Bad_name instead. *)
let test_bad_names () =
  expects (Spec.Bad_name { kind = "tenant"; name = "a.b" }) (fun () ->
      Spec.make ~hosts:[ host "vault0" ] ~tenants:[ tenant "a.b" ]
        [ volume ~tenant:"a.b" "v0" ]);
  expects (Spec.Bad_name { kind = "host"; name = "v/0" }) (fun () ->
      Spec.make ~hosts:[ host "v/0" ] ~tenants:[]
        [ volume ~tenant:"" ~host:"v/0" "v0" ]);
  expects (Spec.Bad_name { kind = "volume"; name = "v 1" }) (fun () ->
      Spec.make ~hosts:[ host "vault0" ] ~tenants:[ tenant "eng" ]
        [ volume "v 1" ]);
  expects (Spec.Bad_name { kind = "filer"; name = "f.0" }) (fun () ->
      Spec.make ~hosts:[ host "vault0" ] ~tenants:[ tenant "eng" ]
        [ volume ~filer:"f.0" "v0" ]);
  expects (Spec.Bad_name { kind = "volume"; name = "" }) (fun () ->
      Spec.make ~hosts:[ host "vault0" ] ~tenants:[ tenant "eng" ] [ volume "" ])

(* Deadlines must sit inside (window, +inf) when present. *)
let test_deadline_validation () =
  expects (Spec.Bad_value { name = "v0"; field = "deadline_s" }) (fun () ->
      Spec.make ~hosts:[ host "vault0" ] ~tenants:[ tenant "eng" ]
        [ volume ~deadline:(-1.0) "v0" ]);
  expects (Spec.Bad_value { name = "v0"; field = "deadline_s" }) (fun () ->
      Spec.make ~hosts:[ host "vault0" ] ~tenants:[ tenant "eng" ]
        [ volume ~window:2.0 ~deadline:1.0 "v0" ]);
  (* deadline_s is emitted only when set: old specs' digests survive *)
  let contains ~needle hay =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  let plain = Spec.synth ~seed:5 ~volumes:4 () in
  checkb "no deadline_s in a deadline-less render" false
    (contains ~needle:"deadline_s=" (Spec.render plain));
  let s =
    Spec.synth ~seed:5 ~volumes:8 ~deadline_every:4 ~deadline_s:3.5 ()
  in
  let s' = Spec.parse (Spec.render s) in
  checks "deadline round-trips" (Spec.render s) (Spec.render s');
  checki "every 4th volume carries the deadline" 2
    (List.length
       (List.filter (fun v -> v.Spec.v_deadline_s > 0.0) s.Spec.s_volumes))

(* ----------------------- sampler and series -------------------------- *)

let test_fleet_trace_series () =
  let spec =
    Spec.synth ~seed:17 ~volumes:6 ~hosts:2 ~drives_per_host:2 ~tenants:2
      ~bytes_per_volume:8_000 ()
  in
  let p = Obs.create () in
  let report, _ = Obs.with_armed p (fun () -> Fleet.run (Fleet.plan spec)) in
  checki "night completes" 6 (List.length report.Fleet.rp_completed);
  (* the fleet sampler resampled the scheduler's utilization timeline
     into fleet.util.* series on the plane *)
  let prefixed pre n =
    String.length n >= String.length pre && String.sub n 0 (String.length pre) = pre
  in
  let util = List.filter (prefixed "fleet.util.") (Obs.series_names p) in
  checkb "fleet.util.* series present" true (util <> []);
  List.iter
    (fun n ->
      List.iter
        (fun (_, v) ->
          checkb (n ^ " utilization within [0,1]") true (v >= 0.0 && v <= 1.0))
        (Obs.series p n))
    util;
  (* fleet.volumes_done is monotone in both time and value *)
  let pts = Obs.series p "fleet.volumes_done" in
  checki "one volumes_done point per completion" 6 (List.length pts);
  let rec mono = function
    | (t0, v0) :: ((t1, v1) :: _ as rest) ->
      t0 <= t1 && v0 <= v1 && mono rest
    | _ -> true
  in
  checkb "fleet.volumes_done monotone" true (mono pts);
  checkb "last volumes_done point is the total" true
    (match List.rev pts with (_, v) :: _ -> v = 6.0 | [] -> false);
  (* the analysis plane now attributes a fleet phase *)
  let phases = (Analysis.analyze p).Analysis.phases in
  checkb "analysis yields a fleet phase" true
    (List.exists (fun (ph : Analysis.phase) -> ph.Analysis.p_name = "fleet") phases);
  (* series_csv exports every series, volumes_done included *)
  let csv = Analysis.series_csv p in
  checkb "series_csv covers fleet.volumes_done" true
    (let n = String.length csv and k = "fleet.volumes_done" in
     let kn = String.length k in
     let rec go i = i + kn <= n && (String.sub csv i kn = k || go (i + 1)) in
     go 0)

let () =
  Alcotest.run "fleet"
    [
      ( "spec",
        [
          Alcotest.test_case "typed validation" `Quick test_spec_validation;
          Alcotest.test_case "non-finite numbers rejected" `Quick test_non_finite;
          Alcotest.test_case "metric-path-safe names" `Quick test_bad_names;
          Alcotest.test_case "deadline validation and round-trip" `Quick
            test_deadline_validation;
          Alcotest.test_case "typed parse errors" `Quick test_parse_errors;
          Alcotest.test_case "render/parse round-trip" `Quick
            test_render_parse_roundtrip;
        ] );
      ( "plan",
        [ Alcotest.test_case "determinism and ordering" `Quick test_plan_ordering ]
      );
      ( "catalog",
        [ Alcotest.test_case "FLT1 round-trip" `Quick test_status_roundtrip ] );
      ( "night",
        [
          Alcotest.test_case "backup windows" `Quick test_windows;
          Alcotest.test_case "tenant budgets" `Quick test_tenant_budget;
          Alcotest.test_case "storm + resume" `Quick test_storm_resume;
          Alcotest.test_case "fleet.* gauges and series" `Quick test_obs_gauges;
          Alcotest.test_case "sampler and series over a fleet trace" `Quick
            test_fleet_trace_series;
        ] );
    ]

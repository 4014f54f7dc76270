(* Tests for the observability plane: log2 histogram bucketing edges,
   span nesting and unbalanced exits, the Chrome trace of a real backup
   (nested engine -> part -> stage -> device I/O, balanced B/E pairs),
   fault-journal correlation through retry attempt spans, and the qcheck
   property that identical workload+fault seeds export byte-identical
   traces and metrics. *)

module Obs = Repro_obs.Obs
module Fault = Repro_fault.Fault
module Volume = Repro_block.Volume
module Library = Repro_tape.Library
module Fs = Repro_wafl.Fs
module Strategy = Repro_backup.Strategy
module Engine = Repro_backup.Engine

(* Build a validated job description and run it. *)
let backup eng ~strategy ?level ?subtree ?exclude ?label ?parts ?drives ?resume
    () =
  Engine.backup_job eng
    (Engine.Job.make ~strategy ?level ?subtree ?exclude ?label ?parts ?drives
       ?resume ())
module Clock = Repro_sim.Clock
module Generator = Repro_workload.Generator

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* --------------------------- histograms ------------------------------ *)

let test_bucket_edges () =
  checki "0 -> bucket 0" 0 (Obs.bucket_of 0);
  checki "negative -> bucket 0" 0 (Obs.bucket_of (-5));
  checki "min_int -> bucket 0" 0 (Obs.bucket_of min_int);
  checki "1 -> bucket 1" 1 (Obs.bucket_of 1);
  checki "2 -> bucket 2" 2 (Obs.bucket_of 2);
  checki "3 -> bucket 2" 2 (Obs.bucket_of 3);
  checki "4 -> bucket 3" 3 (Obs.bucket_of 4);
  checki "7 -> bucket 3" 3 (Obs.bucket_of 7);
  checki "8 -> bucket 4" 4 (Obs.bucket_of 8);
  checki "max_int -> bucket 62" 62 (Obs.bucket_of max_int);
  (* every bucket's lower bound files into that bucket, and one less than
     the next bound still does *)
  for k = 1 to 62 do
    checki "bucket_lo round-trips" k (Obs.bucket_of (Obs.bucket_lo k));
    if k < 62 then
      checki "bucket upper edge" k (Obs.bucket_of (Obs.bucket_lo (k + 1) - 1))
  done;
  checki "bucket_lo 0" 0 (Obs.bucket_lo 0);
  checki "bucket_lo 1" 1 (Obs.bucket_lo 1);
  checki "bucket_lo 5" 16 (Obs.bucket_lo 5)

let test_hist_recording () =
  let p = Obs.create () in
  Obs.with_armed p (fun () ->
      List.iter (Obs.hist "h") [ 0; 1; 1; 3; 1024; max_int; -9 ]);
  (match Obs.hist_stats p "h" with
  | None -> Alcotest.fail "histogram missing"
  | Some (n, sum, vmax) ->
    checki "count" 7 n;
    checki "sum" (0 + 1 + 1 + 3 + 1024 + max_int + -9) sum;
    checki "max" max_int vmax);
  Alcotest.(check (list (pair int int)))
    "nonzero buckets ascending"
    [ (0, 2); (1, 2); (2, 1); (11, 1); (62, 1) ]
    (Obs.hist_buckets p "h");
  checkb "absent histogram" true (Obs.hist_stats p "none" = None)

(* ----------------------------- spans --------------------------------- *)

let test_span_nesting () =
  let p = Obs.create () in
  Obs.with_armed p (fun () ->
      Obs.with_span "outer" (fun () ->
          Obs.with_span "inner" (fun () ->
              checkb "current is inner" true (Obs.current_span () > 0));
          Obs.instant "tick"));
  checki "no open spans" 0 (Obs.open_spans p);
  checki "no unbalanced ends" 0 (Obs.unbalanced p);
  let evs = Obs.events p in
  let b = List.filter (fun e -> e.Obs.ph = Obs.B) evs in
  let e = List.filter (fun e -> e.Obs.ph = Obs.E) evs in
  checki "two begins" 2 (List.length b);
  checki "two ends" 2 (List.length e);
  let outer = List.find (fun ev -> ev.Obs.ev_name = "outer") b in
  let inner = List.find (fun ev -> ev.Obs.ev_name = "inner") b in
  checki "outer is a root span" 0 outer.Obs.parent;
  checki "inner's parent is outer" outer.Obs.span inner.Obs.parent;
  let tick = List.find (fun ev -> ev.Obs.ph = Obs.I) evs in
  checki "instant tagged with enclosing span" outer.Obs.span tick.Obs.span

let test_unbalanced_exit () =
  let p = Obs.create () in
  Obs.with_armed p (fun () ->
      let outer = Obs.span_begin "outer" in
      let _inner = Obs.span_begin "inner" in
      (* closing the outer span closes the abandoned inner one too *)
      Obs.span_end outer;
      checki "stack fully unwound" 0 (Obs.open_spans p);
      (* ending a span that is not open is counted, not fatal *)
      Obs.span_end outer;
      Obs.span_end 999);
  checki "two unbalanced ends" 2 (Obs.unbalanced p);
  let abandoned =
    List.filter
      (fun ev ->
        ev.Obs.ph = Obs.E && List.mem_assoc "abandoned" ev.Obs.attrs)
      (Obs.events p)
  in
  checki "inner marked abandoned" 1 (List.length abandoned);
  (* span id 0 (the disabled no-op id) is always ignored *)
  Obs.with_armed p (fun () -> Obs.span_end 0);
  checki "id 0 not counted" 2 (Obs.unbalanced p)

(* Span attributes are stored newest-first and reversed once at close;
   the exported E-event attrs must equal the in-order append of the
   original code (Oracle.Spans) under any interleaving of begins,
   annotates and ends — including ends of outer spans that abandon inner
   ones and ends of spans already closed. *)
type span_op = Begin | Annotate of Obs.attr list | End of int * Obs.attr list

let span_ops_gen =
  let open QCheck2.Gen in
  let attr =
    map2 (fun k v -> (Printf.sprintf "k%d" k, Obs.Int v)) (int_bound 3) (int_bound 9)
  in
  let attrs = list_size (int_bound 3) attr in
  list_size (int_bound 40)
    (frequency
       [
         (3, return Begin);
         (4, map (fun a -> Annotate a) attrs);
         (3, map2 (fun i a -> End (i, a)) (int_bound 10) attrs);
       ])

let prop_span_attrs_match_oracle =
  QCheck2.Test.make ~count:300 ~name:"span attrs = in-order append oracle"
    span_ops_gen (fun ops ->
      let p = Obs.create () in
      let o = Oracle.Spans.create () in
      let ids = ref [||] in
      Obs.with_armed p (fun () ->
          List.iter
            (function
              | Begin ->
                let id = Obs.span_begin "s" in
                if id <> Oracle.Spans.span_begin o then failwith "span ids diverged";
                ids := Array.append !ids [| id |]
              | Annotate a ->
                Obs.annotate a;
                Oracle.Spans.annotate o a
              | End (i, a) ->
                if Array.length !ids > 0 then begin
                  let id = !ids.(i mod Array.length !ids) in
                  Obs.span_end ~attrs:a id;
                  Oracle.Spans.span_end o ~attrs:a id
                end)
            ops);
      let got =
        List.filter_map
          (fun ev ->
            if ev.Obs.ph = Obs.E then Some (ev.Obs.span, ev.Obs.attrs) else None)
          (Obs.events p)
      in
      got = Oracle.Spans.ends o)

let test_disabled_plane_records_nothing () =
  let p = Obs.create ~enabled:false () in
  Obs.with_armed p (fun () ->
      checkb "not enabled" false (Obs.enabled ());
      checki "span id 0 when disabled" 0 (Obs.span_begin "x");
      Obs.count "c" 3;
      Obs.hist "h" 5;
      Obs.io ~op:"tape.write" ~device:"T" ~bytes:10 0.1);
  checki "no events" 0 (List.length (Obs.events p));
  checki "no counter" 0 (Obs.counter_value p "c");
  checkb "no histogram" true (Obs.hist_stats p "h" = None)

let test_hist_percentiles () =
  let p = Obs.create () in
  (* constant distribution: the vmax clamp makes every quantile exact *)
  Obs.with_armed p (fun () -> List.iter (Obs.hist "c") [ 100; 100; 100; 100 ]);
  let pct name q =
    match Obs.hist_percentile p name q with
    | Some v -> v
    | None -> Alcotest.fail "percentile missing"
  in
  Alcotest.(check (float 1e-9)) "constant p50" 100.0 (pct "c" 0.50);
  Alcotest.(check (float 1e-9)) "constant p99" 100.0 (pct "c" 0.99);
  (* values spread over distinct buckets: the estimate lands in the right
     bucket, and quantiles are monotonic *)
  Obs.with_armed p (fun () -> List.iter (Obs.hist "s") [ 1; 2; 4; 8; 16; 32; 64; 128 ]);
  let in_bucket v lo hi = v > lo && v <= hi in
  checkb "p50 in its bucket" true (in_bucket (pct "s" 0.50) 8.0 16.0);
  checkb "p95 clamped to max" true (pct "s" 0.95 <= 128.0);
  checkb "monotonic" true (pct "s" 0.50 <= pct "s" 0.95 && pct "s" 0.95 <= pct "s" 0.99);
  (* all zeros -> bucket 0 -> 0.0 *)
  Obs.with_armed p (fun () -> List.iter (Obs.hist "z") [ 0; 0; 0 ]);
  Alcotest.(check (float 1e-9)) "all-zero p99" 0.0 (pct "z" 0.99);
  checkb "absent histogram" true (Obs.hist_percentile p "none" 0.5 = None)

(* Edge cases flagged by the PR-7 audit: all-negative histograms used to
   disagree between the constant fast path (returning vmax < 0) and the
   general path (clamping up to 0.0); and non-finite gauge/series values
   rendered as bare nan/inf, which is not JSON. *)
let test_percentile_edge_cases () =
  let p = Obs.create () in
  let pct name q =
    match Obs.hist_percentile p name q with
    | Some v -> v
    | None -> Alcotest.fail "percentile missing"
  in
  (* constant all-negative: fast path, exact *)
  Obs.with_armed p (fun () -> Obs.hist "negc" (-5));
  Alcotest.(check (float 1e-9)) "negative constant p50" (-5.0) (pct "negc" 0.50);
  (* non-constant all-negative: general path must agree in sign (clamped
     to the observed max, not forced up to 0) *)
  Obs.with_armed p (fun () -> List.iter (Obs.hist "negs") [ -5; -3 ]);
  Alcotest.(check (float 1e-9)) "all-negative p99" (-3.0) (pct "negs" 0.99);
  (* mixed sign: bucket-0 pooling still estimates low quantiles at 0 and
     the top quantile reaches the positive max *)
  Obs.with_armed p (fun () -> List.iter (Obs.hist "mix") [ -7; -1; 4; 8 ]);
  checkb "mixed p25 at bucket-0 estimate" true (pct "mix" 0.25 = 0.0);
  checkb "mixed p99 positive" true (pct "mix" 0.99 > 0.0 && pct "mix" 0.99 <= 8.0);
  (* q clamped into [0,1] *)
  checkb "q below range" true (pct "mix" (-1.0) <= pct "mix" 2.0)

let test_exporters_with_edge_values () =
  let p = Obs.create () in
  Obs.with_armed p (fun () ->
      Obs.set_gauge "bad.gauge" Float.nan;
      Obs.set_gauge "inf.gauge" Float.infinity;
      Obs.sample "bad.series" Float.neg_infinity;
      Obs.hist "h" 3);
  let jm = Obs.metrics_jsonl p in
  let js = Obs.series_jsonl p in
  checkb "nan gauge rendered as null" true (contains jm "null");
  checkb "no bare nan in metrics" false (contains jm "nan");
  checkb "no bare inf in metrics" false (contains jm "inf\"");
  checkb "no bare inf value in metrics" false (contains jm ":inf");
  checkb "no bare -inf in series" false (contains js ":-inf");
  (* an armed-but-empty plane exports stably *)
  let empty = Obs.create () in
  Obs.with_armed empty (fun () -> ());
  checkb "empty metrics jsonl stable" true
    (String.equal (Obs.metrics_jsonl empty) (Obs.metrics_jsonl empty))

let test_nat_compare () =
  checkb "drive2 before drive10" true (Obs.nat_compare "drive2" "drive10" < 0);
  checkb "drive10 after drive2" true (Obs.nat_compare "drive10" "drive2" > 0);
  checkb "equal strings" true (Obs.nat_compare "tape.S3" "tape.S3" = 0);
  checkb "plain lex still works" true (Obs.nat_compare "apple" "banana" < 0);
  checkb "digits before longer digits" true (Obs.nat_compare "a9b" "a10b" < 0);
  checkb "equal values, fewer leading zeros first" true
    (Obs.nat_compare "a7" "a07" < 0);
  Alcotest.(check (list string))
    "sort order"
    [ "d1"; "d2"; "d10"; "d11"; "e0" ]
    (List.sort Obs.nat_compare [ "d10"; "d2"; "e0"; "d11"; "d1" ])

let test_series_recording () =
  let p = Obs.create () in
  Obs.with_armed p (fun () ->
      Obs.sample ~at:0.0 "backup.util.cpu" 0.25;
      Obs.sample ~at:1.0 "backup.util.cpu" 0.75;
      Obs.io ~op:"tape.write" ~device:"S0" ~bytes:4096 0.5);
  Alcotest.(check (list (pair (float 1e-9) (float 1e-9))))
    "recorded points in order"
    [ (0.0, 0.25); (1.0, 0.75) ]
    (Obs.series p "backup.util.cpu");
  (* the device op yields a derived busy timeline *)
  checkb "derived dev series listed" true
    (List.mem "dev.S0.busy" (Obs.series_names p));
  let busy = Obs.series p "dev.S0.busy" in
  checkb "derived series nonempty" true (busy <> []);
  checkb "busy fractions in [0,1]" true
    (List.for_all (fun (_, v) -> v >= 0.0 && v <= 1.0) busy);
  checkb "device was busy" true (List.exists (fun (_, v) -> v > 0.0) busy);
  checkb "unknown series empty" true (Obs.series p "nope" = []);
  (* jsonl carries one line per series *)
  let jl = Obs.series_jsonl p in
  checkb "jsonl has the recorded series" true
    (contains jl "\"name\":\"backup.util.cpu\",\"type\":\"series\"");
  checkb "jsonl has the derived series" true (contains jl "\"name\":\"dev.S0.busy\"")

(* ------------------------ a real backup trace ------------------------ *)

let make_engine ?clock ?(seed = 1) () =
  let vol = Volume.create ~label:"src" (Volume.small_geometry ~data_blocks:16384) in
  let fs = Fs.mkfs vol in
  let profile = { Generator.default with seed } in
  ignore (Generator.populate ~profile ~fs ~root:"/data" ~total_bytes:400_000 ());
  let libs = [ Library.create ~slots:16 ~label:"L0" () ] in
  (Engine.create ?clock ~fs ~libraries:libs (), fs)

(* Walk the event list with a stack, checking B/E pairing and returning
   the set of (child name, parent name) nesting edges seen. *)
let nesting_edges evs =
  let edges = ref [] in
  let stack = ref [] in
  List.iter
    (fun ev ->
      match ev.Obs.ph with
      | Obs.B ->
        (match !stack with
        | (pname, pid) :: _ ->
          checki "parent id matches the enclosing span" pid ev.Obs.parent;
          edges := (ev.Obs.ev_name, pname) :: !edges
        | [] -> edges := (ev.Obs.ev_name, "") :: !edges);
        stack := (ev.Obs.ev_name, ev.Obs.span) :: !stack
      | Obs.E -> (
        match !stack with
        | (_, id) :: rest ->
          checki "E closes the innermost open span" id ev.Obs.span;
          stack := rest
        | [] -> Alcotest.fail "E event with no span open")
      | Obs.I | Obs.X -> ())
    evs;
  checki "trace ends with all spans closed" 0 (List.length !stack);
  !edges

let test_backup_trace_structure () =
  let clock = Clock.create () in
  let eng, _ = make_engine ~clock () in
  let p = Obs.create ~clock () in
  Obs.with_armed p (fun () ->
      ignore (backup eng ~strategy:Strategy.Logical ~subtree:"/data" ~parts:2 ()));
  let evs = Obs.events p in
  let edges = nesting_edges evs in
  checkb "part nests under engine.backup" true
    (List.mem ("part", "engine.backup") edges);
  checkb "each part runs as a retryable attempt" true
    (List.mem ("attempt", "part") edges);
  checkb "dump stages nest under the attempt" true
    (List.mem ("dumping files", "attempt") edges);
  (* device I/O shows up as X events inside the trace *)
  checkb "tape writes recorded" true
    (List.exists (fun e -> e.Obs.ph = Obs.X && e.Obs.ev_name = "tape.write") evs);
  checkb "disk reads recorded" true
    (List.exists (fun e -> e.Obs.ph = Obs.X && e.Obs.ev_name = "disk.read") evs);
  (* and the derived metrics exist *)
  checkb "tape.write.ops counted" true (Obs.counter_value p "tape.write.ops" > 0);
  checkb "dump.files counted" true (Obs.counter_value p "dump.files" > 0);
  (match Obs.hist_stats p "tape.write.latency_us" with
  | Some (n, _, _) -> checkb "latency histogram populated" true (n > 0)
  | None -> Alcotest.fail "tape.write.latency_us missing");
  (* the exported JSON is a plausible Chrome trace *)
  let json = Obs.chrome_trace p in
  checkb "traceEvents array" true (contains json "\"traceEvents\":[");
  checkb "B events" true (contains json "\"ph\":\"B\"");
  checkb "X events" true (contains json "\"ph\":\"X\"");
  checkb "engine.backup named" true (contains json "\"name\":\"engine.backup\"");
  (* per-drive lanes: thread_name metadata plus a named drive track *)
  checkb "thread_name metadata" true (contains json "\"ph\":\"M\"");
  checkb "drive lane named" true (contains json "\"name\":\"drive 0\"");
  (* the scheduler's utilization timelines render as counter tracks *)
  checkb "counter events" true (contains json "\"ph\":\"C\"");
  checkb "utilization series exported" true (contains json "backup.util.")

let test_fault_correlation () =
  let clock = Clock.create () in
  let eng, _ = make_engine ~clock () in
  let obs = Obs.create ~clock () in
  let plane =
    Fault.plan [ Fault.Tape_soft_errors { device = "L0"; op = `Write; failures = 1 } ]
  in
  Obs.with_armed obs (fun () ->
      Fault.with_armed plane (fun () ->
          ignore (backup eng ~strategy:Strategy.Logical ~subtree:"/data" ())));
  checki "one retry journalled" 1 (Fault.retries plane);
  let retry_ev =
    List.find (fun (e : Fault.event) -> e.Fault.kind = "retry") (Fault.events plane)
  in
  checkb "journal event carries its span" true (retry_ev.Fault.span > 0);
  (* the attempt span that retried closed with the journal seq attached *)
  let attempt_end =
    List.find_opt
      (fun ev ->
        ev.Obs.ph = Obs.E
        && ev.Obs.ev_name = "attempt"
        && List.mem_assoc "retry_journal_seq" ev.Obs.attrs)
      (Obs.events obs)
  in
  (match attempt_end with
  | None -> Alcotest.fail "no attempt span carries retry_journal_seq"
  | Some ev ->
    checki "attempt span is the journal event's span" retry_ev.Fault.span ev.Obs.span;
    (match List.assoc "retry_journal_seq" ev.Obs.attrs with
    | Obs.Int seq -> checki "seq matches the journal" retry_ev.Fault.seq seq
    | _ -> Alcotest.fail "retry_journal_seq is not an Int"));
  (* the injection itself is an instant tagged with the journal seq *)
  let inst =
    List.find_opt
      (fun ev -> ev.Obs.ph = Obs.I && ev.Obs.ev_name = "fault.tape-soft")
      (Obs.events obs)
  in
  (match inst with
  | None -> Alcotest.fail "no fault.tape-soft instant"
  | Some ev -> (
    match List.assoc_opt "journal_seq" ev.Obs.attrs with
    | Some (Obs.Int _) -> ()
    | _ -> Alcotest.fail "instant lacks journal_seq"));
  checkb "fault.injected counted" true (Obs.counter_value obs "fault.injected" >= 1);
  checkb "fault.retries counted" true (Obs.counter_value obs "fault.retries" >= 1)

(* --------------------------- determinism ----------------------------- *)

(* Identical workload and fault seeds must export byte-identical traces
   and metrics: everything recorded is a pure function of the workload. *)
let prop_identical_seeds_identical_exports =
  QCheck2.Test.make ~count:4 ~name:"identical seeds export identical traces"
    QCheck2.Gen.(pair (int_range 0 1000) (int_range 0 1000))
    (fun (wseed, fseed) ->
      let run () =
        let clock = Clock.create () in
        let eng, _ = make_engine ~clock ~seed:wseed () in
        let obs = Obs.create ~clock () in
        let plane =
          Fault.plan ~seed:fseed
            [
              Fault.Tape_soft_errors { device = "L0"; op = `Write; failures = 1 };
              Fault.Flaky_reads { device = "src.rg0.d0"; failures = 2; prob = 0.5 };
            ]
        in
        Obs.with_armed obs (fun () ->
            Fault.with_armed plane (fun () ->
                try
                  ignore
                    (backup eng ~strategy:Strategy.Logical ~subtree:"/data" ())
                with Fault.Media_error _ | Fault.Transient _ -> ()));
        (Obs.chrome_trace obs, Obs.metrics_jsonl obs)
      in
      let t1, m1 = run () in
      let t2, m2 = run () in
      String.equal t1 t2 && String.equal m1 m2)

let () =
  Alcotest.run "obs"
    [
      ( "histogram",
        [
          ("bucketing edges", `Quick, test_bucket_edges);
          ("recording and stats", `Quick, test_hist_recording);
          ("percentile estimates", `Quick, test_hist_percentiles);
          ("percentile edge cases", `Quick, test_percentile_edge_cases);
          ("exporters with edge values", `Quick, test_exporters_with_edge_values);
        ] );
      ( "naming",
        [ ("natural metric order", `Quick, test_nat_compare) ] );
      ( "series",
        [ ("recorded and derived series", `Quick, test_series_recording) ] );
      ( "spans",
        [
          ("nesting and instants", `Quick, test_span_nesting);
          ("unbalanced exits", `Quick, test_unbalanced_exit);
          ("disabled plane records nothing", `Quick, test_disabled_plane_records_nothing);
          QCheck_alcotest.to_alcotest ~long:false prop_span_attrs_match_oracle;
        ] );
      ( "trace",
        [
          ("backup trace structure", `Quick, test_backup_trace_structure);
          ("fault journal correlation", `Quick, test_fault_correlation);
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest ~long:false prop_identical_seeds_identical_exports ] );
    ]

(* Tests for the host-side self-profiling plane: disarmed hooks are
   no-ops, the call tree and flat table aggregate enter/leave frames
   (including recursion and token unwinding across skipped leaves),
   counters and peak gauges record, the three exporters produce
   well-formed output, and — the plane's core contract — the qcheck
   property that a seeded backup run with profiling armed exports
   byte-identical obs traces, metrics, and tape bytes as the same run
   with profiling off. *)

module Prof = Repro_prof.Prof
module Strategy = Repro_backup.Strategy

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let row s name = List.find_opt (fun r -> r.Prof.r_name = name) s.Prof.s_rows

(* ----------------------------- disarmed ------------------------------ *)

let test_disarmed_is_noop () =
  let p = Prof.probe "t.disarmed" in
  let c = Prof.counter "t.disarmed_c" in
  checkb "not enabled" false (Prof.enabled ());
  checki "enter returns 0 when off" 0 (Prof.enter p);
  Prof.leave 0;
  Prof.add c 5;
  Prof.peak c 9;
  checkb "with_probe passes value through" true (Prof.with_probe p (fun () -> true));
  (* none of that left a trace on a profile armed afterwards *)
  let t = Prof.create () in
  Prof.with_armed t (fun () -> ());
  let s = Prof.summary t in
  checki "no rows" 0 (List.length s.Prof.s_rows);
  checki "no counters" 0 (List.length s.Prof.s_counters)

(* ---------------------------- aggregation ---------------------------- *)

let test_aggregation () =
  let outer = Prof.probe "t.outer" in
  let inner = Prof.probe "t.inner" in
  let c = Prof.counter "t.count" in
  let pk = Prof.counter "t.peak" in
  let t = Prof.create () in
  Prof.with_armed t (fun () ->
      for _ = 1 to 3 do
        Prof.with_probe outer (fun () ->
            Prof.add c 2;
            Prof.with_probe inner (fun () -> ignore (Sys.opaque_identity (String.make 64 'x'))))
      done;
      Prof.peak pk 4;
      Prof.peak pk 2);
  let s = Prof.summary t in
  checkb "armed" false (Prof.enabled ());
  (match (row s "t.outer", row s "t.inner") with
  | Some o, Some i ->
    checki "outer calls" 3 o.Prof.r_calls;
    checki "inner calls" 3 i.Prof.r_calls;
    checkb "outer self <= total" true (o.Prof.r_self_s <= o.Prof.r_total_s +. 1e-12);
    checkb "inner total <= outer total" true (i.Prof.r_total_s <= o.Prof.r_total_s +. 1e-12);
    checkb "inner allocated" true (i.Prof.r_alloc_b > 0.0)
  | _ -> Alcotest.fail "missing probe rows");
  checkb "counter recorded" true (List.assoc_opt "t.count" s.Prof.s_counters = Some 6);
  checkb "peak keeps max" true (List.assoc_opt "t.peak" s.Prof.s_peaks = Some 4);
  checkb "wall time positive" true (s.Prof.s_wall_s >= 0.0);
  (* a second armed window accumulates on the same profile *)
  Prof.with_armed t (fun () -> Prof.with_probe outer (fun () -> ()));
  let s2 = Prof.summary t in
  (match row s2 "t.outer" with
  | Some o -> checki "calls accumulate across windows" 4 o.Prof.r_calls
  | None -> Alcotest.fail "row vanished")

let test_recursion_and_unwind () =
  let r = Prof.probe "t.rec" in
  let a = Prof.probe "t.a" in
  let b = Prof.probe "t.b" in
  let t = Prof.create () in
  Prof.with_armed t (fun () ->
      (* direct recursion: three nested frames of the same probe *)
      let rec go n = if n > 0 then Prof.with_probe r (fun () -> go (n - 1)) in
      go 3;
      (* token unwind: leaving the outer token closes the inner frame
         whose leave was skipped (exception-style unwind) *)
      let tok_a = Prof.enter a in
      let _tok_b = Prof.enter b in
      Prof.leave tok_a);
  let s = Prof.summary t in
  (match row s "t.rec" with
  | Some rr ->
    checki "recursive calls all counted" 3 rr.Prof.r_calls;
    (* total charged once at the outermost frame, so total <= wall *)
    checkb "recursion not double counted" true (rr.Prof.r_total_s <= s.Prof.s_wall_s +. 1e-9)
  | None -> Alcotest.fail "missing recursive row");
  (match (row s "t.a", row s "t.b") with
  | Some ra, Some rb ->
    checki "outer frame closed" 1 ra.Prof.r_calls;
    checki "abandoned inner frame closed too" 1 rb.Prof.r_calls
  | _ -> Alcotest.fail "missing unwind rows")

(* ----------------------------- exporters ----------------------------- *)

let test_exporters () =
  let p1 = Prof.probe "t.exp_parent" in
  let p2 = Prof.probe "t.exp_child" in
  let t = Prof.create () in
  Prof.with_armed t (fun () ->
      Prof.with_probe p1 (fun () -> Prof.with_probe p2 (fun () -> ())));
  let folded = Prof.folded t in
  checkb "folded has a root line" true (contains folded "all ");
  checkb "folded has the nested stack" true
    (contains folded "all;t.exp_parent;t.exp_child ");
  (* folded lines are sorted *)
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' folded) in
  checkb "folded sorted" true (List.sort String.compare lines = lines);
  let jsonl = Prof.jsonl t in
  (match String.split_on_char '\n' jsonl with
  | meta :: _ -> checkb "meta first" true (contains meta "\"type\":\"meta\"")
  | [] -> Alcotest.fail "empty jsonl");
  checkb "probe lines present" true (contains jsonl "\"type\":\"probe\"");
  checkb "probe named" true (contains jsonl "\"t.exp_child\"");
  let buf = Buffer.create 256 in
  let fmt = Format.formatter_of_buffer buf in
  Prof.pp_summary fmt t;
  Format.pp_print_flush fmt ();
  checkb "summary mentions probe" true (contains (Buffer.contents buf) "t.exp_parent")

(* ---------------------------- per domain ----------------------------- *)

(* A profile is armed for its own domain only: probes hit on another
   domain while it is armed do not land in it. *)
let test_other_domain_not_recorded () =
  let mine = Prof.probe "t.dom_mine" in
  let theirs = Prof.probe "t.dom_theirs" in
  let c = Prof.counter "t.dom_count" in
  let t = Prof.create () in
  Prof.with_armed t (fun () ->
      Prof.with_probe mine (fun () -> Prof.bump c);
      Domain.join
        (Domain.spawn (fun () ->
             checkb "not armed on the spawned domain" false (Prof.enabled ());
             for _ = 1 to 100 do
               Prof.with_probe theirs (fun () -> Prof.bump c)
             done)));
  let s = Prof.summary t in
  checkb "own probe recorded" true (row s "t.dom_mine" <> None);
  checkb "other domain's probe absent" true (row s "t.dom_theirs" = None);
  checkb "counter counts own bumps only" true
    (List.assoc_opt "t.dom_count" s.Prof.s_counters = Some 1)

(* --------------------------- zero feedback --------------------------- *)

(* The scenario and byte capture live in the shared differential
   harness (Differential.run); [~profiled] arms a host profile around
   the identical run and asserts it observed something. *)
let prop_profiling_is_zero_feedback =
  QCheck2.Test.make ~count:4 ~name:"profiling on/off yields identical traces and tapes"
    QCheck2.Gen.(pair (int_range 0 1000) bool)
    (fun (seed, physical) ->
      let strategy = if physical then Strategy.Physical else Strategy.Logical in
      let plain = Differential.run ~bytes:400_000 ~seed ~strategy () in
      let profiled = Differential.run ~profiled:true ~bytes:400_000 ~seed ~strategy () in
      Differential.agree plain profiled)

let () =
  Alcotest.run "prof"
    [
      ( "plane",
        [
          ("disarmed hooks are no-ops", `Quick, test_disarmed_is_noop);
          ("aggregation", `Quick, test_aggregation);
          ("recursion and unwind", `Quick, test_recursion_and_unwind);
          ("exporters", `Quick, test_exporters);
          ("other domains not recorded", `Quick, test_other_domain_not_recorded);
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest ~long:false prop_profiling_is_zero_feedback ] );
    ]

(* Tests for the benchmark's own code: its order statistics, its name
   checks, and the fleet replay it checks [Fleet.run] against. *)

open Perfbench
module Fleet = Repro_fleet.Fleet

let close = Alcotest.float 1e-12
let floats = List.map Float.of_int

let test_median () =
  Alcotest.check close "odd" 2.0 (Stats.median [ 3.0; 1.0; 2.0 ]);
  Alcotest.check close "even" 2.5 (Stats.median [ 4.0; 1.0; 3.0; 2.0 ]);
  Alcotest.check close "one" 7.0 (Stats.median [ 7.0 ]);
  Alcotest.check_raises "empty" (Invalid_argument "Stats.median: no samples") (fun () ->
      ignore (Stats.median []))

(* Expected values are Python's statistics.quantiles(xs, n=4). *)
let test_quartiles () =
  let q3 = Alcotest.(triple close close close) in
  Alcotest.check q3 "1..10" (2.75, 5.5, 8.25) (Stats.quartiles (floats (List.init 10 succ)));
  Alcotest.check q3 "three" (1.0, 2.0, 3.0) (Stats.quartiles [ 3.0; 1.0; 2.0 ]);
  Alcotest.check q3 "two" (0.0, 3.0, 6.0) (Stats.quartiles [ 5.0; 1.0 ]);
  Alcotest.check q3 "five" (0.75, 2.25, 5.25) (Stats.quartiles [ 0.5; 2.25; 1.0; 7.0; 3.5 ])

let test_tail () =
  let xs n = floats (List.init n succ) in
  let tail = Alcotest.(option (pair int close)) in
  (* p99 of 1000 is rank 990: exactly ten samples beyond it *)
  Alcotest.check tail "1000 -> p99" (Some (990, 990.0)) (Stats.tail (xs 1000));
  Alcotest.check tail "999 -> p95" (Some (950, 950.0)) (Stats.tail (xs 999));
  Alcotest.check tail "20 -> p50" (Some (500, 10.0)) (Stats.tail (xs 20));
  Alcotest.check tail "19 -> none" None (Stats.tail (xs 19));
  Alcotest.check tail "10000 -> p99.9" (Some (999, 9990.0)) (Stats.tail (xs 10000));
  Alcotest.check close "p50 nearest rank" 3.0 (Stats.percentile [ 5.0; 1.0; 4.0; 2.0; 3.0 ] 500)

let test_names () =
  List.iter
    (fun n -> Alcotest.(check bool) n true (Stats.valid_name n))
    [ "setup_s"; "wafl.mkfs.us_per_volume"; "9lives"; "a-b_c.d"; String.make 64 'x' ];
  List.iter
    (fun n -> Alcotest.(check bool) (Printf.sprintf "%S" n) false (Stats.valid_name n))
    [ ""; ".hidden"; "_x"; "a b"; "a/b"; "ms\""; String.make 65 'x' ];
  List.iter
    (fun u -> Alcotest.(check bool) u true (Stats.valid_unit u))
    [ "ms"; "1/s"; "MB/s"; "%"; "B/B"; "count" ];
  Alcotest.(check bool) "long unit" false (Stats.valid_unit (String.make 17 's'))

let test_catalog () =
  let names = List.map fst (Harness.end_to_end @ Harness.per_layer) in
  List.iter (fun n -> Alcotest.(check bool) n true (Stats.valid_name n)) names;
  Alcotest.(check int) "unique" (List.length names)
    (List.length (List.sort_uniq String.compare names));
  Alcotest.(check bool) "setup_s first" true (fst (List.hd Harness.end_to_end) = "setup_s")

let test_result_line () =
  let m value = { Stats.name = "wall_s"; unit = "s"; value } in
  Alcotest.(check string)
    "shape"
    {|{"correct": true, "attempted": 3, "failed": 0, "metrics": {"wall_s": {"value": 1.25, "unit": "s"}}}|}
    (Stats.result_line ~correct:true ~attempted:3 ~failed:0 [ m 1.25 ]);
  Alcotest.check_raises "nan" (Invalid_argument "Stats.result_line: non-finite value for wall_s")
    (fun () -> ignore (Stats.result_line ~correct:true ~attempted:1 ~failed:0 [ m Float.nan ]));
  Alcotest.check_raises "bad name" (Invalid_argument "Stats.result_line: bad name a b")
    (fun () ->
      ignore
        (Stats.result_line ~correct:true ~attempted:1 ~failed:0
           [ { (m 1.0) with Stats.name = "a b" } ]))

(* The replay through the public per-volume calls writes, volume for
   volume, the tape bytes [Fleet.run] writes. *)
let test_fleet_replay () =
  let plan = Fleet.plan (Fleet_night.spec ~seed:7 ~volumes:12) in
  let report, _ = Fleet.run plan in
  let crcs, ms = Fleet_night.replay (Fleet_night.order plan) in
  Alcotest.(check int) "all completed" 12 (List.length report.Fleet.rp_completed);
  Alcotest.(check int) "one time per volume" 12 (List.length ms);
  List.iter
    (fun (c : Fleet.Status.completed) ->
      Alcotest.(check (option int)) c.Fleet.Status.c_volume (Some c.Fleet.Status.c_tape_crc)
        (Hashtbl.find_opt crcs c.Fleet.Status.c_volume))
    report.Fleet.rp_completed

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "quartiles" `Quick test_quartiles;
          Alcotest.test_case "tail percentile" `Quick test_tail;
          Alcotest.test_case "names" `Quick test_names;
          Alcotest.test_case "metric catalog" `Quick test_catalog;
          Alcotest.test_case "result line" `Quick test_result_line;
        ] );
      ("fleet", [ Alcotest.test_case "replay CRCs equal Fleet.run" `Quick test_fleet_replay ]);
    ]

(* The differential suite (see differential.ml): every whole scenario —
   seeds and both strategies locally, over the network plane, and with a
   restore — must reproduce byte for byte the stream digests recorded on
   the pre-optimization reference paths (test/fixtures/
   differential_digests.txt), and the checked-in pre-optimization goldens
   must still be reproduced. The algorithm-level oracles are in
   oracle.ml. *)

module D = Differential
module Strategy = Repro_backup.Strategy
module Fleet = Repro_fleet.Fleet
module Fault = Repro_fault.Fault

let seeds = [ 1; 42; 1999 ]

let strategies =
  [ ("logical", Strategy.Logical); ("physical", Strategy.Physical) ]

(* The whole-scenario cases: (alcotest group, test name, fixture key,
   run). Each was once checked against the same run on the reference
   paths; its digests were recorded there. *)
let cases =
  List.concat_map
    (fun (sname, strategy) ->
      List.map
        (fun seed ->
          ( "reference==fast local",
            Printf.sprintf "%s seed %d" sname seed,
            Printf.sprintf "local-%s-s%d" sname seed,
            fun () -> D.run ~seed ~strategy () ))
        seeds)
    strategies
  @ List.map
      (fun (sname, strategy) ->
        ( "reference==fast remote",
          sname ^ " seed 42",
          "remote-" ^ sname ^ "-s42",
          fun () -> D.run ~remote:true ~seed:42 ~strategy () ))
      strategies
  @ List.map
      (fun (sname, strategy) ->
        ( "reference==fast with restore",
          sname,
          "restore-" ^ sname ^ "-s42",
          fun () -> D.run ~restore:true ~seed:42 ~strategy () ))
      strategies

let test_deterministic () =
  let a = D.run ~seed:7 ~strategy:Strategy.Logical () in
  let b = D.run ~seed:7 ~strategy:Strategy.Logical () in
  D.check_identical "same seed twice" a b

(* ------------------------------ goldens ------------------------------ *)

(* The golden scenario streams a seeded logical dump through every hot
   seam — dump, tape blocking, mover, session, frame, remote tape — and
   its tape bytes and chrome trace were captured before the fast paths
   existed. Regenerate them and differential_digests.txt (only when a
   format deliberately changes) with
   DIFF_FIXTURES_DIR=$PWD/test/fixtures dune exec test/test_differential.exe *)
let golden_run () =
  D.run ~remote:true ~seed:42 ~strategy:Strategy.Logical ~blocks:2048
    ~bytes:60_000 ~profile:D.tiny_profile ()

let golden_files = [ ("golden_tape_s42.bin", fun (a : D.artifacts) -> a.D.a_tapes); ("golden_trace_s42.json", fun (a : D.artifacts) -> a.D.a_trace) ]

(* Under `dune runtest` the cwd is the sandboxed test dir (fixtures/
   alongside); under a bare `dune exec` it is the workspace root. *)
let fixtures_dir () =
  if Sys.file_exists "fixtures" then "fixtures" else "test/fixtures"

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let digests_file = "differential_digests.txt"

let all_digest_lines () =
  List.concat_map (fun (_, _, key, run) -> D.digest_lines key (run ())) cases

let test_goldens () =
  let a = golden_run () in
  match Sys.getenv_opt "DIFF_FIXTURES_DIR" with
  | Some dir ->
    List.iter
      (fun (name, get) -> write_file (Filename.concat dir name) (get a))
      golden_files;
    write_file
      (Filename.concat dir digests_file)
      (String.concat "" (List.map (fun l -> l ^ "\n") (all_digest_lines ())));
    Printf.printf "regenerated %d golden fixtures and %s into %s\n"
      (List.length golden_files) digests_file dir
  | None ->
    List.iter
      (fun (name, get) ->
        let want = read_file (Filename.concat (fixtures_dir ()) name) in
        let got = get a in
        if not (String.equal want got) then
          Alcotest.failf
            "golden %s no longer reproduced (first diff at byte %d; lengths %d vs %d)"
            name (D.first_diff want got) (String.length want) (String.length got))
      golden_files

let regenerating () = Sys.getenv_opt "DIFF_FIXTURES_DIR" <> None

let check_digests key a =
  let prefix = key ^ " " in
  let want =
    List.filter
      (String.starts_with ~prefix)
      (String.split_on_char '\n'
         (read_file (Filename.concat (fixtures_dir ()) digests_file)))
  in
  if want = [] then Alcotest.failf "%s: no digests in %s" key digests_file;
  Alcotest.(check (list string)) (key ^ " stream digests") want (D.digest_lines key a)

(* A case must reproduce its fixture lines exactly. While fixtures are
   being regenerated the goldens test rewrites the file instead. *)
let test_digests key run () = if not (regenerating ()) then check_digests key (run ())

(* --------------------------- two domains ----------------------------- *)

(* Two simulations in one process, one per domain, must not see each
   other's planes: each reproduces exactly what it produces alone. Case
   [a] runs on a spawned domain while case [b] runs on this one. *)
let test_pair (_, _, key_a, run_a) (_, _, key_b, run_b) () =
  if not (regenerating ()) then begin
    let other = Domain.spawn run_a in
    let b = run_b () in
    let a = Domain.join other in
    check_digests key_a a;
    check_digests key_b b
  end

let pairs =
  let arr = Array.of_list cases in
  let half = Array.length arr / 2 in
  List.init half (fun i -> (arr.(i), arr.(i + half)))

(* A fault drill — soft write errors on drive S0, absorbed by the
   engine's retry — armed on a spawned domain beside a clean run that
   also writes through a drive labelled S0. *)
let drill () =
  let plane =
    Fault.plan [ Fault.Tape_soft_errors { device = "S0"; op = `Write; failures = 2 } ]
  in
  let a = Fault.with_armed plane (fun () -> D.run ~seed:42 ~strategy:Strategy.Logical ()) in
  Alcotest.(check int) "the drill injected its faults" 2 (Fault.injected plane);
  (D.digest_lines "drill" a, Fault.journal_lines plane)

let test_drill_beside_clean () =
  if not (regenerating ()) then begin
    let alone = drill () in
    let other = Domain.spawn drill in
    let clean = D.run ~seed:1 ~strategy:Strategy.Physical () in
    let beside = Domain.join other in
    check_digests "local-physical-s1" clean;
    let digests, journal = beside and digests0, journal0 = alone in
    Alcotest.(check (list string)) "drill journal" journal0 journal;
    Alcotest.(check (list string)) "drill digests" digests0 digests
  end

(* --------------------- fleet granularity ---------------------------- *)

(* The differential discipline extended to a whole backup night: a fleet
   run interrupted by a seeded drive storm (plus an admission abort) and
   restarted from its FLT1 catalog must produce per-volume tape bytes
   identical to the uninterrupted night, for any fleet and storm seed. *)
let prop_fleet_storm_restart_identical =
  QCheck2.Test.make ~count:3
    ~name:"fleet: storm + restart reproduces uninterrupted tape bytes"
    QCheck2.Gen.(pair (int_range 0 1000) (int_range 0 1000))
    (fun (seed, storm_seed) ->
      let spec =
        Fleet.Spec.synth ~seed ~volumes:6 ~hosts:2 ~drives_per_host:2
          ~tenants:2 ~bytes_per_volume:9_000 ()
      in
      let plan = Fleet.plan spec in
      let full, _ = Fleet.run ~keep_tapes:true plan in
      let storm =
        {
          Fleet.storm_after = 1;
          storm_drives = 2;
          storm_abort_after = Some 3;
          storm_seed;
        }
      in
      let part, status = Fleet.run ~storm ~keep_tapes:true plan in
      let rest, status' = Fleet.run ~resume:status ~keep_tapes:true plan in
      let combined = part.Fleet.rp_tapes @ rest.Fleet.rp_tapes in
      List.length full.Fleet.rp_tapes = 6
      && List.length status'.Fleet.Status.st_completed = 6
      && List.for_all
           (fun (name, tape) ->
             match List.assoc_opt name combined with
             | Some tape' -> String.equal tape tape'
             | None -> false)
           full.Fleet.rp_tapes)

let () =
  let groups = List.sort_uniq compare (List.map (fun (g, _, _, _) -> g) cases) in
  Alcotest.run "differential"
    (List.map
       (fun group ->
         ( group,
           List.filter_map
             (fun (g, name, key, run) ->
               if g = group then
                 Some (Alcotest.test_case name `Quick (test_digests key run))
               else None)
             cases ))
       groups
    @ [
        ( "goldens",
          [
            Alcotest.test_case "same seed twice is identical" `Quick
              test_deterministic;
            Alcotest.test_case "pre-optimization goldens reproduced" `Quick
              test_goldens;
          ] );
        ( "fleet granularity",
          [
            QCheck_alcotest.to_alcotest ~long:false
              prop_fleet_storm_restart_identical;
          ] );
        ( "two domains",
          List.map
            (fun (((_, _, key_a, _) as a), ((_, _, key_b, _) as b)) ->
              Alcotest.test_case
                (Printf.sprintf "%s beside %s" key_a key_b)
                `Quick (test_pair a b))
            pairs
          @ [
              Alcotest.test_case "fault drill beside a clean run" `Quick
                test_drill_beside_clean;
            ] );
      ])

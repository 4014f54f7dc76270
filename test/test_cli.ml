(* Golden test for backupctl's generated usage: the command/flag registry
   (Repro_cli.Usage) renders the summary table embedded in the top-level
   help, and this test pins it. A command or flag added without updating
   test/cli_help.golden fails here — which is the point: the help can no
   longer silently omit an option (the bug that motivated the registry:
   serve/--remote missing from the hand-maintained summary). *)

module Cli = Repro_cli.Cli
module Usage = Repro_cli.Usage
module Store = Repro_backup.Store
module Engine = Repro_backup.Engine
module Catalog = Repro_backup.Catalog
module Slo = Repro_obs.Slo
module Strategy = Repro_backup.Strategy
module Library = Repro_tape.Library
module Tape = Repro_tape.Tape

let checkb = Alcotest.(check bool)

(* Referencing the command list forces Cli's module initialization, which
   performs every registration. *)
let commands = Cli.commands

let table () = Usage.table ()

let test_matches_golden () =
  let ic = open_in_bin "cli_help.golden" in
  let golden = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let actual = table () ^ "\n" in
  if not (String.equal golden actual) then (
    Format.printf "--- regenerate test/cli_help.golden with: ---@.%s@." actual;
    Alcotest.fail "usage table drifted from test/cli_help.golden")

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_mentions_every_command () =
  let t = table () in
  List.iter
    (fun cmd ->
      checkb
        (Printf.sprintf "help mentions %s" (Cmdliner.Cmd.name cmd))
        true
        (contains ~needle:(Cmdliner.Cmd.name cmd) t))
    commands;
  (* the registry and the real command list agree exactly *)
  Alcotest.(check (list string))
    "registry matches commands"
    (List.sort compare (List.map Cmdliner.Cmd.name commands))
    (List.sort compare (List.map fst (Usage.commands ())))

let test_mentions_every_flag () =
  let t = table () in
  List.iter
    (fun flag ->
      checkb (Printf.sprintf "help mentions %s" flag) true (contains ~needle:flag t))
    (Usage.all_flags ());
  (* the network additions specifically: the bug this registry fixes *)
  List.iter
    (fun needle ->
      checkb (Printf.sprintf "help mentions %s" needle) true (contains ~needle t))
    [ "serve"; "--remote"; "--bandwidth-mib" ]

(* ------------------------- end-to-end commands ------------------------ *)

(* Commands run in-process on a temp store, as [backupctl ARGS] would. *)
let backupctl args =
  Cmdliner.Cmd.eval' ~argv:(Array.of_list ("backupctl" :: args)) (Cli.group commands)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* A fresh file in the test's directory, removed when the suite exits. *)
let temp ext =
  let path = Filename.temp_file ~temp_dir:Filename.current_dir_name "cli" ext in
  at_exit (fun () -> if Sys.file_exists path then Sys.remove path);
  path

let temp_store () =
  let store = temp ".store" in
  Alcotest.(check int) "init exits 0" 0
    (backupctl [ "init"; store; "--data-mib"; "2"; "--drives"; "4" ]);
  store

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let test_backup_explains_itself () =
  let store = temp_store () in
  let trace = temp ".json" and metrics = temp ".jsonl" and analysis = temp ".json"
  and series = temp ".csv" and alerts = temp ".json" in
  Alcotest.(check int) "backup exits 0" 0
    (backupctl
       [ "backup"; store; "--strategy"; "logical"; "--parts"; "4"; "--drives"; "4";
         "--trace-out"; trace; "--metrics-out"; metrics; "--analysis-out"; analysis;
         "--series-out"; series; "--alerts-out"; alerts ]);
  Alcotest.(check int) "one run, one catalog entry" 1
    (List.length (Catalog.entries (Engine.catalog (Store.load ~path:store))));
  List.iter
    (fun (what, path) ->
      match Slo.Json.parse (read_file path) with
      | _ -> ()
      | exception e ->
        Alcotest.failf "%s does not parse: %s" what (Printexc.to_string e))
    [ ("trace", trace); ("analysis report", analysis); ("alert journal", alerts) ];
  checkb "metrics written" true (String.length (read_file metrics) > 0);
  checkb "series CSV header" true
    (starts_with ~prefix:"series,t_s,value\n" (read_file series))

let test_drill_revives_and_resumes () =
  let store = temp_store () in
  let trace = temp ".json" in
  Alcotest.(check int) "drill exits 0" 0
    (backupctl
       [ "backup"; store; "--strategy"; "logical"; "--subtree"; "/data"; "--parts";
         "3"; "--seed"; "42"; "--inject"; "tape-death:stacker0:10"; "--revive";
         "--trace-out"; trace ]);
  let t = read_file trace in
  checkb "the drive died" true (contains ~needle:"fault.tape-dead" t);
  checkb "and was revived" true (contains ~needle:"fault.revive" t);
  let cat = Engine.catalog (Store.load ~path:store) in
  Alcotest.(check int) "resumed to a catalog entry" 1
    (List.length (Catalog.entries cat));
  Alcotest.(check int) "no checkpoint left" 0 (List.length (Catalog.checkpoints cat))

let test_serve_rejects_bad_attachments () =
  let store = temp_store () in
  let before = read_file store in
  List.iter
    (fun flags ->
      Alcotest.(check int)
        (String.concat " " ("serve" :: flags) ^ " exits 1")
        1
        (backupctl ([ "serve"; store; "--host"; "v" ] @ flags));
      checkb "store unchanged" true (String.equal before (read_file store)))
    [ [ "--drives"; "0" ]; [ "--bandwidth-mib"; "0" ] ]

(* What a command prints on stderr ([Format.err_formatter], where
   [error: …] lines go) while it runs, and its exit code. *)
let with_stderr f =
  let buf = Buffer.create 256 in
  let saved = Format.pp_get_formatter_out_functions Format.err_formatter () in
  Format.pp_print_flush Format.err_formatter ();
  Format.pp_set_formatter_output_functions Format.err_formatter
    (Buffer.add_substring buf) ignore;
  let code =
    Fun.protect f ~finally:(fun () ->
        Format.pp_print_flush Format.err_formatter ();
        Format.pp_set_formatter_out_functions Format.err_formatter saved)
  in
  (code, Buffer.contents buf)

let test_serve_rejects_non_finite_link () =
  let store = temp_store () in
  let before = read_file store in
  List.iter
    (fun flags ->
      let what = String.concat " " ("serve" :: flags) in
      let code, err =
        with_stderr (fun () -> backupctl ([ "serve"; store; "--host"; "v" ] @ flags))
      in
      Alcotest.(check int) (what ^ " exits 1") 1 code;
      checkb (what ^ " says error:") true (starts_with ~prefix:"error:" err);
      checkb "store unchanged" true (String.equal before (read_file store)))
    [
      [ "--latency-ms"; "inf" ];
      [ "--latency-ms"; "nan" ];
      [ "--bandwidth-mib"; "inf" ];
      [ "--bandwidth-mib"; "nan" ];
    ]

(* A fault spec that can never fire is refused before the backup runs;
   these two argv once escaped as [Invalid_argument] (exit 125). *)
let test_backup_rejects_never_firing_fault () =
  let store = temp_store () in
  let before = read_file store in
  List.iter
    (fun spec ->
      let what = "backup --inject " ^ spec in
      let code, err =
        with_stderr (fun () ->
            backupctl [ "backup"; store; "--strategy"; "logical"; "--inject"; spec ])
      in
      Alcotest.(check int) (what ^ " exits 1") 1 code;
      checkb (what ^ " says error:") true (starts_with ~prefix:"error:" err);
      checkb "store unchanged" true (String.equal before (read_file store)))
    [ "net-flap:v:1:0"; "net-partition:v:-1" ]

(* A replication interval must be finite: [--interval=inf] once printed
   "scheduled every inf s" and exited 0 with an edge that never fires. *)
let test_mirror_rejects_non_finite_interval () =
  let store = temp_store () in
  let repl = temp ".repl" in
  Sys.remove repl;
  List.iter
    (fun flag ->
      let what = "mirror init " ^ flag in
      let code, err =
        with_stderr (fun () ->
            backupctl [ "mirror"; store; "init"; "m1"; "--repl"; repl; flag ])
      in
      Alcotest.(check int) (what ^ " exits 1") 1 code;
      checkb (what ^ " says error:") true (starts_with ~prefix:"error:" err);
      checkb "no topology written" false (Sys.file_exists repl))
    [ "--interval=nan"; "--interval=inf" ]

let test_init_rejects_no_drives () =
  List.iter
    (fun argv ->
      let store = temp ".store" in
      Sys.remove store;
      Alcotest.(check int) (String.concat " " ("init" :: argv) ^ " exits 1") 1
        (backupctl ([ "init"; store ] @ argv));
      checkb "no store written" false (Sys.file_exists store))
    [ [ "--drives"; "0" ]; [ "--drives=-3" ] ]

(* A damaged physical chain is a failed command: [verify] exits 1, as
   every other typed error does, instead of printing the problems and
   exiting 0. *)
let test_verify_fails_on_damage () =
  let eng, _, libs = Differential.make_engine ~seed:3 () in
  ignore (Differential.backup eng ~strategy:Strategy.Physical ~parts:1 ~drives:[ 0 ]);
  let store = temp ".store" in
  Store.save ~path:store eng;
  let verify () = backupctl [ "verify"; store; "--label"; "vol" ] in
  Alcotest.(check int) "clean chain verifies, exit 0" 0 (verify ());
  let media = List.hd (Library.used_media (List.hd libs)) in
  Tape.corrupt_record media ~index:(Tape.media_records media / 2);
  Store.save ~path:store eng;
  Alcotest.(check int) "damaged chain, exit 1" 1 (verify ())

let () =
  Alcotest.run "cli"
    [
      ( "usage",
        [
          Alcotest.test_case "table matches golden" `Quick test_matches_golden;
          Alcotest.test_case "every command in help" `Quick test_mentions_every_command;
          Alcotest.test_case "every flag in help" `Quick test_mentions_every_flag;
        ] );
      ( "commands",
        [
          Alcotest.test_case "one backup, every export" `Quick
            test_backup_explains_itself;
          Alcotest.test_case "drill revives and resumes" `Quick
            test_drill_revives_and_resumes;
          Alcotest.test_case "serve rejects bad attachments" `Quick
            test_serve_rejects_bad_attachments;
          Alcotest.test_case "serve rejects a non-finite link" `Quick
            test_serve_rejects_non_finite_link;
          Alcotest.test_case "backup rejects a never-firing fault" `Quick
            test_backup_rejects_never_firing_fault;
          Alcotest.test_case "init rejects fewer than one drive" `Quick
            test_init_rejects_no_drives;
          Alcotest.test_case "mirror rejects a non-finite interval" `Quick
            test_mirror_rejects_non_finite_interval;
          Alcotest.test_case "verify fails on a damaged chain" `Quick
            test_verify_fails_on_damage;
        ] );
    ]

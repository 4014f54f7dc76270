(* backupctl — operate a simulated filer kept in a store file.

   The store file holds the volume image, the tape stackers (local and
   remote) and their cartridges, the network links to tape servers, the
   catalog and the dumpdates database. Commands and their flags register
   in [Usage]; the top-level help renders that registry, and the golden
   test in test/test_cli.ml pins it. *)

module Volume = Repro_block.Volume
module Library = Repro_tape.Library
module Fs = Repro_wafl.Fs
module Inode = Repro_wafl.Inode
module Strategy = Repro_backup.Strategy
module Engine = Repro_backup.Engine
module Catalog = Repro_backup.Catalog
module Restore = Repro_dump.Restore
module Store = Repro_backup.Store
module Generator = Repro_workload.Generator
module Ager = Repro_workload.Ager
module Fault = Repro_fault.Fault
module Report = Repro_backup.Report
module Disk = Repro_block.Disk
module Obs = Repro_obs.Obs
module Analysis = Repro_obs.Analysis
module Slo = Repro_obs.Slo
module Prof = Repro_prof.Prof
module Link = Repro_net.Link
module Repl = Repro_repl.Repl
module Serde = Repro_util.Serde
module Fleet = Repro_fleet.Fleet

open Cmdliner

let say fmt = Format.printf (fmt ^^ "@.")

let with_store path f =
  let engine = Store.load ~path in
  let save_back = f engine in
  if save_back then Store.save ~path engine;
  0

let handle f =
  try f () with
  | Fs.Error m | Restore.Error m | Repro_image.Image_restore.Error m ->
    Format.eprintf "error: %s@." m;
    1
  | Sys_error m ->
    Format.eprintf "error: %s@." m;
    1
  | Repl.Error m ->
    Format.eprintf "error: %s@." m;
    1
  | Repl.Snapshot_gap { node; base } ->
    Format.eprintf
      "error: replica %s chains from %s, which the source no longer holds; \
       run mirror resync %s@."
      node base node;
    1
  | Engine.Job.Invalid e ->
    Format.eprintf "error: %s@." (Engine.Job.error_message e);
    1
  | Engine.Attach_invalid e ->
    Format.eprintf "error: %s@." (Engine.attach_error_message e);
    1
  | Link.Invalid e ->
    Format.eprintf "error: %s@." (Link.error_message e);
    1
  | Fleet.Spec.Invalid e ->
    Format.eprintf "error: %s@." (Fleet.Spec.error_message e);
    1
  | Fault.Invalid_spec m ->
    Format.eprintf "error: %s@." m;
    1
  | Slo.Parse_error { line; msg } ->
    Format.eprintf "error: SLO rules line %d: %s@." line msg;
    1
  | Repro_util.Serde.Corrupt m ->
    Format.eprintf "error: corrupt store: %s@." m;
    1

(* ---------------------------- summaries ------------------------------ *)

(* One line per command, in help order: feeds each subcommand's
   [Cmd.info] doc AND the generated command list in the top-level help,
   so the two can't drift. *)
let () =
  List.iter
    (fun (name, doc) -> ignore (Usage.command name doc))
    [
      ("init", "Create a new simulated filer store");
      ("ls", "List a directory");
      ("cat", "Print a file's contents");
      ("info", "Show volume statistics");
      ("fsck", "Check (and optionally repair) file-system consistency");
      ("mkdir", "Create a directory");
      ("put", "Create or overwrite a file");
      ("rm", "Remove a file");
      ("age", "Churn /data to simulate daily activity");
      ("snap", "Manage snapshots");
      ("quota", "Manage quota-tree limits");
      ("ln", "Create a hard or symbolic link");
      ("serve", "Attach a remote tape server's stackers, or list attached servers");
      ("backup", "Run a backup, locally or to a remote tape server, optionally as a fault drill");
      ("catalog", "Show the backup catalog (including resumable in-flight jobs)");
      ("restore", "Logical restore (full chain or selected paths)");
      ("browse", "Interactively browse a dump and extract files (restore -i)");
      ("disaster", "Recreate the volume from the physical chain into a new store");
      ("verify", "Checksum-verify the physical backup chain");
      ("mirror", "Manage scheduled replication, failover and resync");
      ("fleet", "Plan, run or inspect a fleet-wide backup night from a spec");
      ("profile", "Run any backupctl command under the host-side self-profiler");
    ]

let summary = Usage.summary

(* --------------------------- observability --------------------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path contents =
  Repro_util.Atomic_file.write path (fun oc -> output_string oc contents)

let obs_cmds = [ "backup"; "restore"; "fleet" ]

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info
        (Usage.flag ~cmds:obs_cmds [ "trace-out" ])
        ~docv:"FILE"
        ~doc:
          "Write a Chrome trace_event JSON of this run to $(docv) (load it in \
           Perfetto or about:tracing).")

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info
        (Usage.flag ~cmds:obs_cmds [ "metrics-out" ])
        ~docv:"FILE" ~doc:"Write a JSONL metrics dump of this run to $(docv).")

(* A fresh plane when [need] or an export asks for one: the common path
   arms nothing and pays nothing. *)
let obs_plane ?(need = false) trace_out metrics_out =
  if need || trace_out <> None || metrics_out <> None then Some (Obs.create ())
  else None

(* Run [f] under [obs], if any, and export what it recorded. The exports
   happen in the [finally] so an interrupted run (a fault drill dying
   mid-backup) still leaves its trace behind. *)
let with_obs obs ?trace_out ?metrics_out f =
  match obs with
  | None -> f ()
  | Some o ->
    Fun.protect
      ~finally:(fun () ->
        Option.iter (fun p -> write_file p (Obs.chrome_trace o)) trace_out;
        Option.iter (fun p -> write_file p (Obs.metrics_jsonl o)) metrics_out)
      (fun () -> Obs.with_armed o f)

(* ------------------------------- args -------------------------------- *)

let store_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"STORE" ~doc:"Store file.")

let path_pos n doc = Arg.(required & pos n (some string) None & info [] ~docv:"PATH" ~doc)

(* ------------------------------- init -------------------------------- *)

let cmd_init =
  let run store data_mib seed drives empty =
    if drives < 1 then begin
      (* checked before mkfs: a bad count must not cost a populate *)
      Format.eprintf "error: init needs at least one tape drive (--drives %d)@." drives;
      1
    end
    else
      handle (fun () ->
          let bytes = data_mib * 1024 * 1024 in
          let data_blocks = (bytes / 4096 * 2) + 2048 in
          let vol = Volume.create ~label:"filer" (Volume.small_geometry ~data_blocks) in
          let fs = Fs.mkfs vol in
          if not empty then begin
            (* /data is a quota tree, so `backupctl quota` has a subject *)
            ignore (Fs.qtree_create fs "/data" ~perms:0o755);
            let profile = { Generator.default with Generator.seed } in
            let stats = Generator.populate ~profile ~fs ~root:"/data" ~total_bytes:bytes () in
            say "populated /data: %d files, %d directories, %d bytes" stats.Generator.files
              stats.Generator.dirs stats.Generator.bytes
          end;
          let libraries =
            List.init drives (fun i ->
                Library.create ~slots:32 ~label:(Printf.sprintf "stacker%d" i) ())
          in
          let engine = Engine.create ~fs ~libraries () in
          Store.save ~path:store engine;
          say "created %s (%d-block volume, %d tape stacker%s)" store (Fs.size_blocks fs)
            drives
            (if drives = 1 then "" else "s");
          0)
  in
  let data_mib =
    Arg.(
      value & opt int 4
      & info (Usage.flag ~cmds:[ "init" ] [ "data-mib" ])
          ~doc:"Synthetic data to generate (MiB).")
  in
  let seed =
    Arg.(
      value & opt int 1
      & info (Usage.flag ~cmds:[ "init" ] [ "seed" ]) ~doc:"Workload seed.")
  in
  let drives =
    Arg.(
      value & opt int 2
      & info (Usage.flag ~cmds:[ "init" ] [ "drives" ]) ~doc:"Tape stackers.")
  in
  let empty =
    Arg.(
      value & flag
      & info (Usage.flag ~cmds:[ "init" ] [ "empty" ]) ~doc:"Skip synthetic data.")
  in
  Cmd.v
    (Cmd.info "init" ~doc:(summary "init"))
    Term.(const run $ store_arg $ data_mib $ seed $ drives $ empty)

(* ----------------------------- inspection ---------------------------- *)

let cmd_ls =
  let run store path =
    handle (fun () ->
        with_store store (fun engine ->
            let fs = Engine.fs engine in
            List.iter
              (fun (name, ino) ->
                let attr = Fs.getattr_ino fs ino in
                let kind =
                  match attr.Inode.kind with
                  | Inode.Directory -> "d"
                  | Inode.Regular -> "-"
                  | Inode.Symlink -> "l"
                  | Inode.Free -> "?"
                in
                say "%s %04o %10d  %s" kind attr.Inode.perms attr.Inode.size name)
              (List.sort compare (Fs.readdir fs path));
            false))
  in
  Cmd.v
    (Cmd.info "ls" ~doc:(summary "ls"))
    Term.(const run $ store_arg $ path_pos 1 "Directory to list.")

let cmd_cat =
  let run store path =
    handle (fun () ->
        with_store store (fun engine ->
            let fs = Engine.fs engine in
            let size = (Fs.getattr fs path).Inode.size in
            print_string (Fs.read fs path ~offset:0 ~len:size);
            false))
  in
  Cmd.v
    (Cmd.info "cat" ~doc:(summary "cat"))
    Term.(const run $ store_arg $ path_pos 1 "File to print.")

let cmd_info =
  let run store =
    handle (fun () ->
        with_store store (fun engine ->
            let fs = Engine.fs engine in
            say "volume: %d blocks (%d used, %d free), %d inodes in use"
              (Fs.size_blocks fs) (Fs.used_blocks fs) (Fs.free_blocks fs)
              (Fs.inode_count fs);
            say "generation: %d" (Fs.generation fs);
            List.iter
              (fun (s : Fs.snap_info) ->
                say "snapshot %-24s id=%d blocks=%d" s.Fs.name s.Fs.id s.Fs.blocks)
              (Fs.snapshots fs);
            false))
  in
  Cmd.v (Cmd.info "info" ~doc:(summary "info")) Term.(const run $ store_arg)

let cmd_fsck =
  let run store repair =
    handle (fun () ->
        with_store store (fun engine ->
            let fs = Engine.fs engine in
            if repair then begin
              match Fs.fsck_repair fs with
              | [] -> say "fsck: clean, nothing to repair"
              | actions -> List.iter (fun a -> say "repaired: %s" a) actions
            end
            else begin
              match Fs.fsck fs with
              | Ok () -> say "fsck: clean"
              | Error problems -> List.iter (fun p -> say "fsck: %s" p) problems
            end;
            true))
  in
  let repair =
    Arg.(
      value & flag
      & info (Usage.flag ~cmds:[ "fsck" ] [ "repair" ]) ~doc:"Fix what can be fixed.")
  in
  Cmd.v
    (Cmd.info "fsck" ~doc:(summary "fsck"))
    Term.(const run $ store_arg $ repair)

(* ----------------------------- mutation ------------------------------ *)

let cmd_mkdir =
  let run store path =
    handle (fun () ->
        with_store store (fun engine ->
            ignore (Fs.mkdir (Engine.fs engine) path ~perms:0o755);
            true))
  in
  Cmd.v
    (Cmd.info "mkdir" ~doc:(summary "mkdir"))
    Term.(const run $ store_arg $ path_pos 1 "Directory to create.")

let cmd_put =
  let run store path data =
    handle (fun () ->
        with_store store (fun engine ->
            let fs = Engine.fs engine in
            if Fs.lookup fs path = None then ignore (Fs.create fs path ~perms:0o644);
            Fs.truncate fs path ~size:0;
            Fs.write fs path ~offset:0 data;
            say "wrote %d bytes to %s" (String.length data) path;
            true))
  in
  let data =
    Arg.(
      required
      & opt (some string) None
      & info (Usage.flag ~cmds:[ "put" ] [ "data" ]) ~doc:"Content to write.")
  in
  Cmd.v
    (Cmd.info "put" ~doc:(summary "put"))
    Term.(const run $ store_arg $ path_pos 1 "File path." $ data)

let cmd_rm =
  let run store path =
    handle (fun () ->
        with_store store (fun engine ->
            Fs.unlink (Engine.fs engine) path;
            true))
  in
  Cmd.v
    (Cmd.info "rm" ~doc:(summary "rm"))
    Term.(const run $ store_arg $ path_pos 1 "File to remove.")

let cmd_age =
  let run store rounds seed =
    handle (fun () ->
        with_store store (fun engine ->
            let churn = { Ager.default_churn with Ager.rounds; seed } in
            let s = Ager.age ~churn ~fs:(Engine.fs engine) ~root:"/data" () in
            say "aged: %d deletes, %d creates, %d overwrites, %d appends, %d renames"
              s.Ager.deletes s.Ager.creates s.Ager.overwrites s.Ager.appends
              s.Ager.renames;
            true))
  in
  let rounds =
    Arg.(
      value & opt int 5
      & info (Usage.flag ~cmds:[ "age" ] [ "rounds" ]) ~doc:"Churn rounds.")
  in
  let seed =
    Arg.(
      value & opt int 42
      & info (Usage.flag ~cmds:[ "age" ] [ "seed" ]) ~doc:"Churn seed.")
  in
  Cmd.v
    (Cmd.info "age" ~doc:(summary "age"))
    Term.(const run $ store_arg $ rounds $ seed)

(* ----------------------------- snapshots ----------------------------- *)

let cmd_snap =
  let run store action name =
    handle (fun () ->
        with_store store (fun engine ->
            let fs = Engine.fs engine in
            match (action, name) with
            | "list", _ ->
              List.iter (fun (s : Fs.snap_info) -> say "%s" s.Fs.name) (Fs.snapshots fs);
              false
            | "create", Some n ->
              Fs.snapshot_create fs n;
              say "snapshot %s created" n;
              true
            | "delete", Some n ->
              Fs.snapshot_delete fs n;
              say "snapshot %s deleted" n;
              true
            | _ ->
              say "usage: snap STORE (list | create NAME | delete NAME)";
              false))
  in
  let action =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"ACTION" ~doc:"list, create or delete.")
  in
  let snap_name = Arg.(value & pos 2 (some string) None & info [] ~docv:"NAME") in
  Cmd.v
    (Cmd.info "snap" ~doc:(summary "snap"))
    Term.(const run $ store_arg $ action $ snap_name)

(* --------------------------- tape servers ----------------------------- *)

let cmd_serve =
  let run store host drives slots bandwidth_mib latency_ms mtu_kib window_kib =
    handle (fun () ->
        with_store store (fun engine ->
            match host with
            | None ->
              (match Engine.hosts engine with
              | [] -> say "no tape servers attached (serve STORE --host NAME)"
              | hs ->
                List.iter
                  (fun h ->
                    let p =
                      Link.params_of (Option.get (Engine.link_to engine ~host:h))
                    in
                    say
                      "%s: drive%s %s — %.1f MiB/s link, %.2f ms latency, %d \
                       KiB mtu, %d KiB window"
                      h
                      (if List.length (Engine.remote_drives engine ~host:h) > 1
                       then "s"
                       else "")
                      (String.concat ","
                         (List.map string_of_int
                            (Engine.remote_drives engine ~host:h)))
                      (p.Link.bandwidth_bytes_s /. (1024. *. 1024.))
                      (p.Link.latency_s *. 1000.)
                      (p.Link.mtu_bytes / 1024)
                      (p.Link.window_bytes / 1024))
                  hs);
              false
            | Some host ->
              let libraries =
                List.init (Int.max 0 drives) (fun i ->
                    Library.create ~slots
                      ~label:(Printf.sprintf "%s.stacker%d" host i)
                      ())
              in
              let ids =
                (* A second serve for the same host adds drives over the
                   existing link. *)
                if Engine.link_to engine ~host <> None then
                  Engine.attach_remote engine ~host ~libraries ()
                else
                  Engine.attach_remote engine ~host
                    ~link_params:
                      (Link.params
                         ~bandwidth_bytes_s:(bandwidth_mib *. 1024. *. 1024.)
                         ~latency_s:(latency_ms /. 1000.)
                         ~mtu_bytes:(mtu_kib * 1024)
                         ~window_bytes:(window_kib * 1024) ())
                    ~libraries ()
              in
              say "attached tape server %s: drive%s %s (backup --remote %s)" host
                (if List.length ids > 1 then "s" else "")
                (String.concat "," (List.map string_of_int ids))
                host;
              true))
  in
  let host =
    Arg.(
      value
      & opt (some string) None
      & info (Usage.flag ~cmds:[ "serve" ] [ "host" ])
          ~docv:"NAME"
          ~doc:"Tape server to attach; omit to list attached servers.")
  in
  let drives =
    Arg.(
      value & opt int 1
      & info (Usage.flag ~cmds:[ "serve" ] [ "drives" ])
          ~doc:"Stackers on the server.")
  in
  let slots =
    Arg.(
      value & opt int 32
      & info (Usage.flag ~cmds:[ "serve" ] [ "slots" ])
          ~doc:"Cartridge slots per stacker.")
  in
  let bandwidth =
    Arg.(
      value
      & opt float (Link.default_params.Link.bandwidth_bytes_s /. (1024. *. 1024.))
      & info (Usage.flag ~cmds:[ "serve" ] [ "bandwidth-mib" ])
          ~doc:"Link bandwidth (MiB/s).")
  in
  let latency =
    Arg.(
      value
      & opt float (Link.default_params.Link.latency_s *. 1000.)
      & info (Usage.flag ~cmds:[ "serve" ] [ "latency-ms" ])
          ~doc:"One-way link latency (ms).")
  in
  let mtu =
    Arg.(
      value
      & opt int (Link.default_params.Link.mtu_bytes / 1024)
      & info (Usage.flag ~cmds:[ "serve" ] [ "mtu-kib" ]) ~doc:"Frame MTU (KiB).")
  in
  let window =
    Arg.(
      value
      & opt int (Link.default_params.Link.window_bytes / 1024)
      & info (Usage.flag ~cmds:[ "serve" ] [ "window-kib" ])
          ~doc:"Transport window (KiB).")
  in
  Cmd.v
    (Cmd.info "serve" ~doc:(summary "serve"))
    Term.(
      const run $ store_arg $ host $ drives $ slots $ bandwidth $ latency $ mtu
      $ window)

(* ------------------------------ backup ------------------------------- *)

let strategy_conv =
  let parse = function
    | "logical" -> Ok Strategy.Logical
    | "physical" -> Ok Strategy.Physical
    | s -> Error (`Msg (Printf.sprintf "unknown strategy %S" s))
  in
  Arg.conv (parse, Strategy.pp)

let streams_str (e : Catalog.entry) =
  String.concat "," (List.map string_of_int e.Catalog.streams)

let report_entry (e : Catalog.entry) =
  let drives =
    match List.sort_uniq compare e.Catalog.part_drives with
    | [] -> [ e.Catalog.drive ]
    | ds -> ds
  in
  say "backup #%d: %a level %d of %s — %d bytes on drive%s %s stream%s %s [%s]%s%s"
    e.Catalog.id Strategy.pp e.Catalog.strategy e.Catalog.level e.Catalog.label
    e.Catalog.bytes
    (if List.length drives > 1 then "s" else "")
    (String.concat "," (List.map string_of_int drives))
    (if List.length e.Catalog.streams > 1 then "s" else "")
    (streams_str e)
    (String.concat "," e.Catalog.media)
    (match
       List.sort_uniq compare
         (List.filter (fun h -> h <> "") e.Catalog.part_hosts)
     with
    | [] -> ""
    | hs -> Printf.sprintf " via %s" (String.concat "," hs))
    (if e.Catalog.degraded > 0 then
       Printf.sprintf " — DEGRADED: %d unreadable file(s) skipped" e.Catalog.degraded
     else "")

let backup_cmds = [ "backup" ]

let strategy_arg =
  Arg.(
    required
    & opt (some strategy_conv) None
    & info (Usage.flag ~cmds:backup_cmds [ "strategy" ]) ~doc:"logical or physical.")

let level_arg =
  Arg.(
    value
    & opt (some int) None
    & info (Usage.flag ~cmds:backup_cmds [ "level" ]) ~doc:"Dump level (0-9).")

let subtree_arg =
  Arg.(
    value & opt string "/"
    & info (Usage.flag ~cmds:backup_cmds [ "subtree" ]) ~doc:"Subtree (logical only).")

let drive_arg =
  Arg.(
    value & opt int 0
    & info (Usage.flag ~cmds:backup_cmds [ "drive" ]) ~doc:"Stacker index.")

let parts_arg =
  Arg.(
    value & opt int 1
    & info
        (Usage.flag ~cmds:backup_cmds [ "parts" ])
        ~doc:"Split the job into this many independent tape streams.")

let drives_arg =
  Arg.(
    value & opt int 1
    & info
        (Usage.flag ~cmds:(backup_cmds @ [ "restore" ]) [ "drives" ])
        ~doc:
          "Schedule parts concurrently across the first this-many stackers \
           (backup), or replay up to this many part streams at once \
           (restore).")

let resume_arg =
  Arg.(
    value & flag
    & info
        (Usage.flag ~cmds:backup_cmds [ "resume" ])
        ~doc:
          "Resume the interrupted backup of this label: only unfinished parts \
           are dumped.")

let remote_arg =
  Arg.(
    value
    & opt (some string) None
    & info
        (Usage.flag ~cmds:backup_cmds [ "remote" ])
        ~docv:"HOST"
        ~doc:
          "Write to the named tape server's drives over its network link \
           (attach one first with $(b,serve)).")

let pool_of engine ~remote ~drives ~drive =
  match remote with
  | Some host -> (
    match Engine.remote_drives engine ~host with
    | [] ->
      raise
        (Fs.Error
           (Printf.sprintf "no tape server %S (attach one with `serve`)" host))
    | ds -> Some (if drives > 1 then List.filteri (fun i _ -> i < drives) ds else ds))
  | None ->
    if drives > 1 then Some (List.init drives Fun.id)
    else if drive <> 0 then Some [ drive ]
    else None

(* The job flags, as a job for a loaded engine (the pool names its
   drives). *)
let job_arg =
  let job strategy level subtree drive drives parts resume remote engine =
    Engine.Job.make ~strategy ?level ~subtree
      ?drives:(pool_of engine ~remote ~drives ~drive)
      ~parts ~resume ()
  in
  Term.(
    const job $ strategy_arg $ level_arg $ subtree_arg $ drive_arg $ drives_arg
    $ parts_arg $ resume_arg $ remote_arg)

(* ------------------------------ faults ------------------------------- *)

(* One --inject flag per fault, colon-separated mini-DSL (devices: disks
   are "filer.rg<G>.d<I>", tape drives "stacker<N>", the volume "filer",
   NVRAM "nvram", network links their tape-server host name). *)
let inject_conv =
  let fail s = Error (`Msg (Printf.sprintf "bad fault spec %S" s)) in
  let parse s =
    let int v = int_of_string_opt v in
    match String.split_on_char ':' s with
    | [ "lse"; dev; a ] -> (
      match int a with
      | Some addr -> Ok (Fault.Latent_sector_error { device = dev; addr })
      | None -> fail s)
    | [ "flaky"; dev; n; p ] -> (
      match (int n, float_of_string_opt p) with
      | Some failures, Some prob -> Ok (Fault.Flaky_reads { device = dev; failures; prob })
      | _ -> fail s)
    | [ "disk-death"; dev; n ] -> (
      match int n with
      | Some after_ios -> Ok (Fault.Disk_death { device = dev; after_ios })
      | None -> fail s)
    | [ "tape-soft"; dev; op; n ] -> (
      match (op, int n) with
      | "read", Some failures ->
        Ok (Fault.Tape_soft_errors { device = dev; op = `Read; failures })
      | "write", Some failures ->
        Ok (Fault.Tape_soft_errors { device = dev; op = `Write; failures })
      | _ -> fail s)
    | [ "tape-hard"; dev; r ] -> (
      match int r with
      | Some record -> Ok (Fault.Tape_hard_error { device = dev; record })
      | None -> fail s)
    | [ "tape-death"; dev; n ] -> (
      match int n with
      | Some after_records -> Ok (Fault.Tape_drive_death { device = dev; after_records })
      | None -> fail s)
    | [ "nvram-loss"; dev; n ] -> (
      match int n with
      | Some after_ops -> Ok (Fault.Nvram_loss { device = dev; after_ops })
      | None -> fail s)
    | [ "torn-fsinfo"; dev ] -> Ok (Fault.Torn_fsinfo_write { device = dev })
    | [ "net-loss"; dev; n; p ] -> (
      match (int n, float_of_string_opt p) with
      | Some losses, Some prob -> Ok (Fault.Packet_loss { device = dev; losses; prob })
      | _ -> fail s)
    | [ "net-flap"; dev; a; d ] -> (
      match (int a, int d) with
      | Some after_frames, Some down_frames ->
        Ok (Fault.Link_flap { device = dev; after_frames; down_frames })
      | _ -> fail s)
    | [ "net-partition"; dev; a ] -> (
      match int a with
      | Some after_frames -> Ok (Fault.Link_partition { device = dev; after_frames })
      | None -> fail s)
    | _ -> fail s
  in
  let print ppf (spec : Fault.spec) =
    match spec with
    | Fault.Latent_sector_error { device; addr } ->
      Format.fprintf ppf "lse:%s:%d" device addr
    | Fault.Flaky_reads { device; failures; prob } ->
      Format.fprintf ppf "flaky:%s:%d:%g" device failures prob
    | Fault.Disk_death { device; after_ios } ->
      Format.fprintf ppf "disk-death:%s:%d" device after_ios
    | Fault.Tape_soft_errors { device; op; failures } ->
      Format.fprintf ppf "tape-soft:%s:%s:%d" device
        (match op with `Read -> "read" | `Write -> "write")
        failures
    | Fault.Tape_hard_error { device; record } ->
      Format.fprintf ppf "tape-hard:%s:%d" device record
    | Fault.Tape_drive_death { device; after_records } ->
      Format.fprintf ppf "tape-death:%s:%d" device after_records
    | Fault.Nvram_loss { device; after_ops } ->
      Format.fprintf ppf "nvram-loss:%s:%d" device after_ops
    | Fault.Torn_fsinfo_write { device } -> Format.fprintf ppf "torn-fsinfo:%s" device
    | Fault.Packet_loss { device; losses; prob } ->
      Format.fprintf ppf "net-loss:%s:%d:%g" device losses prob
    | Fault.Link_flap { device; after_frames; down_frames } ->
      Format.fprintf ppf "net-flap:%s:%d:%d" device after_frames down_frames
    | Fault.Link_partition { device; after_frames } ->
      Format.fprintf ppf "net-partition:%s:%d" device after_frames
  in
  Arg.conv (parse, print)

(* A drill: run [job] under an armed fault plan. A hard fault interrupts
   the backup and leaves its checkpoint; with [revive], heal everything
   the plan killed (dead tape drives, partitioned links) and resume. *)
let drill engine job ~seed ~revive injects =
  let plane = Fault.plan ~seed injects in
  Fault.with_armed plane (fun () ->
      (match Engine.backup_job engine job with
      | entry -> report_entry entry
      | exception
          (( Fault.Drive_dead _ | Fault.Media_error _ | Fault.Transient _
           | Fault.Partitioned _ | Disk.Disk_failed _ | Fs.Error _ ) as e)
        ->
        say "backup interrupted: %s" (Printexc.to_string e);
        if revive then begin
          List.iter
            (fun spec ->
              match spec with
              | Fault.Tape_drive_death { device; _ } when Fault.dead plane ~device ->
                Fault.revive plane ~device
              | Fault.Link_partition { device; _ }
                when Fault.partitioned plane ~device ->
                Fault.revive plane ~device
              | _ -> ())
            injects;
          report_entry
            (Engine.backup_job engine
               (Engine.Job.make ~strategy:job.Engine.Job.strategy
                  ~subtree:job.Engine.Job.subtree ~resume:true ()))
        end);
      Report.faults Format.std_formatter ~plane ~engine)

(* What a finished run explains about itself, all read from the one
   (disarmed) plane it ran under: the bottleneck verdict, the time
   series and the alert journal. *)
let explain o ~analysis_out ~series_out ~rules ~alerts_out =
  Option.iter
    (fun p ->
      let report = Analysis.analyze o in
      Report.bottleneck Format.std_formatter report;
      write_file p (Analysis.to_json report))
    analysis_out;
  Option.iter (fun p -> write_file p (Analysis.series_csv o)) series_out;
  Option.iter
    (fun rules ->
      let e = Slo.create ~rules o in
      Slo.replay e;
      let alerts = Slo.alerts e in
      Slo.pp_journal Format.std_formatter alerts;
      Option.iter (fun p -> write_file p (Slo.journal_json alerts)) alerts_out)
    rules

let cmd_backup =
  let run store job trace_out metrics_out analysis_out series_out rules_file
      alerts_out seed injects revive =
    handle (fun () ->
        (* parse the rules first: a typo in the rule file should not cost
           a backup run *)
        let rules =
          match (rules_file, alerts_out) with
          | Some rf, _ -> Some (Slo.parse_rules (read_file rf))
          | None, Some _ -> Some (Slo.default_job_rules ())
          | None, None -> None
        in
        with_store store (fun engine ->
            let need = analysis_out <> None || series_out <> None || rules <> None in
            let obs = obs_plane ~need trace_out metrics_out in
            with_obs obs ?trace_out ?metrics_out (fun () ->
                let job = job engine in
                if injects = [] then report_entry (Engine.backup_job engine job)
                else drill engine job ~seed ~revive injects);
            Option.iter (explain ~analysis_out ~series_out ~rules ~alerts_out) obs;
            true))
  in
  let file_arg name doc =
    Arg.(
      value
      & opt (some string) None
      & info (Usage.flag ~cmds:backup_cmds [ name ]) ~docv:"FILE" ~doc)
  in
  let analysis_out =
    file_arg "analysis-out"
      "Print the run's critical path and bottleneck verdict, and write the \
       analysis report JSON to $(docv)."
  in
  let series_out =
    file_arg "series-out"
      "Write every time series (including the 64-bin utilization \
       timelines) as CSV ($(b,series,t_s,value)) to $(docv)."
  in
  let rules_file =
    file_arg "rules"
      "Replay the SLO rules in $(docv) ($(b,SLO1) format; see docs/SLO.md) \
       over the run and print the alert journal."
  in
  let alerts_out =
    file_arg "alerts-out"
      "Print the alert journal and write it as JSON to $(docv). Without \
       $(b,--rules), the built-in job rules apply (tape silence, faults \
       injected, retry budget)."
  in
  let seed =
    Arg.(
      value & opt int 0
      & info (Usage.flag ~cmds:backup_cmds [ "seed" ]) ~doc:"Fault-plan PRNG seed.")
  in
  let injects =
    Arg.(
      value & opt_all inject_conv []
      & info (Usage.flag ~cmds:backup_cmds [ "inject" ])
          ~docv:"SPEC"
          ~doc:
            "Run the backup as a drill under this fault (repeatable) and print \
             the fault journal: lse:DEV:ADDR, flaky:DEV:N:PROB, \
             disk-death:DEV:N, tape-soft:DEV:read|write:N, tape-hard:DEV:REC, \
             tape-death:DEV:N, nvram-loss:DEV:N, torn-fsinfo:DEV, \
             net-loss:HOST:N:PROB, net-flap:HOST:AFTER:DOWN, \
             net-partition:HOST:AFTER. Disks are filer.rg<G>.d<I>, tape \
             drives stacker<N>, the volume filer, NVRAM nvram, network links \
             their tape-server host name.")
  in
  let revive =
    Arg.(
      value & flag
      & info (Usage.flag ~cmds:backup_cmds [ "revive" ])
          ~doc:
            "If a hard fault interrupts a drill, revive dead tape drives, \
             heal partitioned links, and resume the job.")
  in
  Cmd.v
    (Cmd.info "backup" ~doc:(summary "backup"))
    Term.(
      const run $ store_arg $ job_arg $ trace_out_arg $ metrics_out_arg
      $ analysis_out $ series_out $ rules_file $ alerts_out $ seed $ injects
      $ revive)

let cmd_catalog =
  let run store =
    handle (fun () ->
        with_store store (fun engine ->
            say "%-4s %-9s %-14s %5s %12s %6s %6s  %s" "id" "strategy" "label" "level"
              "bytes" "drive" "strm" "media";
            List.iter
              (fun (e : Catalog.entry) ->
                say "%-4d %-9s %-14s %5d %12d %6d %6s  %s%s" e.Catalog.id
                  (Strategy.to_string e.Catalog.strategy)
                  e.Catalog.label e.Catalog.level e.Catalog.bytes e.Catalog.drive
                  (streams_str e)
                  (String.concat "," e.Catalog.media)
                  (if e.Catalog.degraded > 0 then
                     Printf.sprintf "  [degraded: %d]" e.Catalog.degraded
                   else ""))
              (Catalog.entries (Engine.catalog engine));
            List.iter
              (fun (ck : Catalog.checkpoint) ->
                say "in-flight: %s %s level %d — %d/%d parts done (backup --resume)"
                  (Strategy.to_string ck.Catalog.ck_strategy)
                  ck.Catalog.ck_label ck.Catalog.ck_level
                  (List.length ck.Catalog.ck_done)
                  ck.Catalog.ck_parts)
              (Catalog.checkpoints (Engine.catalog engine));
            false))
  in
  Cmd.v (Cmd.info "catalog" ~doc:(summary "catalog")) Term.(const run $ store_arg)

(* ------------------------------ restore ------------------------------ *)

let cmd_restore =
  let run store label target select drives trace_out metrics_out =
    handle (fun () ->
        with_store store (fun engine ->
            let fs = Engine.fs engine in
            let select = match select with [] -> None | l -> Some l in
            with_obs (obs_plane trace_out metrics_out) ?trace_out ?metrics_out
              (fun () ->
                let results =
                  Engine.restore_logical engine ~label ~fs ~target ?select
                    ~concurrency:drives ()
                in
                List.iteri
                  (fun i (r : Restore.apply_result) ->
                    say
                      "stream %d: %d files restored, %d dirs created, %d deleted, %d bytes"
                      i r.Restore.files_restored r.Restore.dirs_created
                      r.Restore.files_deleted r.Restore.bytes_restored)
                  results);
            true))
  in
  let label =
    Arg.(
      required
      & opt (some string) None
      & info
          (Usage.flag ~cmds:[ "restore"; "disaster"; "verify"; "browse" ] [ "label" ])
          ~doc:"Backup label.")
  in
  let target =
    Arg.(
      required
      & opt (some string) None
      & info (Usage.flag ~cmds:[ "restore" ] [ "target" ])
          ~doc:"Restore target path.")
  in
  let select =
    Arg.(
      value & opt_all string []
      & info (Usage.flag ~cmds:[ "restore" ] [ "select" ])
          ~doc:"Restore only this path (repeatable).")
  in
  Cmd.v
    (Cmd.info "restore" ~doc:(summary "restore"))
    Term.(
      const run $ store_arg $ label $ target $ select $ drives_arg
      $ trace_out_arg $ metrics_out_arg)

let cmd_disaster =
  let run store label output =
    handle (fun () ->
        let engine = Store.load ~path:store in
        let src_vol = Fs.volume (Engine.fs engine) in
        let replacement = Volume.create ~label:"replacement" (Volume.geometry_of src_vol) in
        let results =
          Engine.restore_physical engine ~label ~volume:replacement ()
        in
        say "applied %d image stream(s)" (List.length results);
        let fs = Fs.mount replacement in
        (match Fs.fsck fs with
        | Ok () -> say "recovered volume: fsck clean"
        | Error p -> List.iter (fun m -> say "fsck: %s" m) p);
        (* The recovered filer keeps the old tape inventory and catalog:
           round-trip the engine blob against the recovered file system. *)
        let buf = Repro_util.Serde.writer () in
        Engine.save buf engine;
        let recovered =
          Engine.load (Repro_util.Serde.reader (Repro_util.Serde.contents buf)) ~fs
        in
        Store.save ~path:output recovered;
        say "recovered filer written to %s" output;
        0)
  in
  let label =
    Arg.(
      required & opt (some string) None & info [ "label" ] ~doc:"Physical backup label.")
  in
  let output =
    Arg.(
      required
      & opt (some string) None
      & info (Usage.flag ~cmds:[ "disaster" ] [ "output" ]) ~doc:"New store file.")
  in
  Cmd.v
    (Cmd.info "disaster" ~doc:(summary "disaster"))
    Term.(const run $ store_arg $ label $ output)

let cmd_verify =
  let run store label =
    handle (fun () ->
        match Engine.verify_physical (Store.load ~path:store) ~label with
        | Ok blocks ->
          say "verified: %d blocks checksum clean" blocks;
          0
        | Error problems ->
          List.iter (fun p -> Format.eprintf "error: verify: %s@." p) problems;
          1)
  in
  let label =
    Arg.(
      required & opt (some string) None & info [ "label" ] ~doc:"Physical backup label.")
  in
  Cmd.v
    (Cmd.info "verify" ~doc:(summary "verify"))
    Term.(const run $ store_arg $ label)

let cmd_quota =
  let run store action path limit =
    handle (fun () ->
        with_store store (fun engine ->
            let fs = Engine.fs engine in
            match action with
            | "set" -> (
              match limit with
              | Some l ->
                Fs.set_qtree_limit fs path ~limit:(Some l);
                say "quota for qtree of %s set to %d bytes" path l;
                true
              | None ->
                say "usage: quota STORE set PATH --limit BYTES";
                false)
            | "clear" ->
              Fs.set_qtree_limit fs path ~limit:None;
              say "quota cleared";
              true
            | "show" ->
              let q = Fs.qtree_of fs path in
              say "qtree %d: %d bytes used%s" q
                (Fs.qtree_usage fs ~qtree:q)
                (match Fs.qtree_limit fs ~qtree:q with
                | Some l -> Printf.sprintf " of %d allowed" l
                | None -> ", no limit");
              false
            | _ ->
              say "usage: quota STORE (set|clear|show) PATH [--limit BYTES]";
              false))
  in
  let action =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"ACTION"
           ~doc:"set, clear or show.")
  in
  let qpath = Arg.(required & pos 2 (some string) None & info [] ~docv:"PATH") in
  let limit =
    Arg.(
      value
      & opt (some int) None
      & info (Usage.flag ~cmds:[ "quota" ] [ "limit" ]) ~doc:"Byte limit.")
  in
  Cmd.v
    (Cmd.info "quota" ~doc:(summary "quota"))
    Term.(const run $ store_arg $ action $ qpath $ limit)

let cmd_ln =
  let run store symbolic src dst =
    handle (fun () ->
        with_store store (fun engine ->
            let fs = Engine.fs engine in
            if symbolic then Fs.symlink fs ~target:src dst else Fs.link fs src dst;
            say "%s %s -> %s" (if symbolic then "symlink" else "hard link") dst src;
            true))
  in
  let symbolic =
    Arg.(
      value & flag
      & info (Usage.flag ~cmds:[ "ln" ] [ "s" ]) ~doc:"Symbolic link.")
  in
  let src =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"TARGET"
           ~doc:"Existing path (or symlink target with -s).")
  in
  let dst = Arg.(required & pos 2 (some string) None & info [] ~docv:"LINK") in
  Cmd.v
    (Cmd.info "ln" ~doc:(summary "ln"))
    Term.(const run $ store_arg $ symbolic $ src $ dst)

(* ------------------------- interactive restore ----------------------- *)

(* The classic `restore -i`: browse a dump's table of contents, mark
   paths, extract the marked set. The paper notes the filer could not
   offer this because its restore lives in the kernel (section 3) — a
   userland tool can. *)
let cmd_browse =
  let run store label target =
    handle (fun () ->
        let engine = Store.load ~path:store in
        let fs = Engine.fs engine in
        let toc =
          match
            Catalog.restore_chain (Engine.catalog engine) ~label
              ~strategy:Strategy.Logical
          with
          | [] -> raise (Fs.Error (Printf.sprintf "no logical backups of %S" label))
          | full :: _ -> Engine.table_of_contents engine full
        in
        let dirs = Hashtbl.create 64 in
        Hashtbl.replace dirs "" ();
        List.iter
          (fun (e : Restore.toc_entry) ->
            if e.Restore.is_dir then Hashtbl.replace dirs e.Restore.rel_path ())
          toc;
        let cwd = ref "" in
        let marked = ref [] in
        let children dir =
          List.filter
            (fun (e : Restore.toc_entry) ->
              let p = e.Restore.rel_path in
              (not (String.equal p ""))
              &&
              let parent =
                match String.rindex_opt p '/' with
                | Some i -> String.sub p 0 i
                | None -> ""
              in
              String.equal parent dir)
            toc
        in
        let resolve arg =
          if arg = "/" then ""
          else if String.length arg > 0 && arg.[0] = '/' then
            String.sub arg 1 (String.length arg - 1)
          else if !cwd = "" then arg
          else !cwd ^ "/" ^ arg
        in
        say "interactive restore: %d entries on the level-0 dump of %s"
          (List.length toc) label;
        say "commands: ls, cd DIR, pwd, add PATH, unadd PATH, marked, extract, quit";
        let quit = ref false in
        while not !quit do
          Format.printf "restore > %!";
          match (try Some (input_line stdin) with End_of_file -> None) with
          | None -> quit := true
          | Some line -> (
            match String.split_on_char ' ' (String.trim line) with
            | [ "" ] -> ()
            | [ "ls" ] ->
              List.iter
                (fun (e : Restore.toc_entry) ->
                  say "%s%s%s"
                    (if List.mem e.Restore.rel_path !marked then "* " else "  ")
                    (Filename.basename e.Restore.rel_path)
                    (if e.Restore.is_dir then "/" else ""))
                (children !cwd)
            | [ "cd"; dir ] ->
              let p =
                if dir = ".." then
                  match String.rindex_opt !cwd '/' with
                  | Some i -> String.sub !cwd 0 i
                  | None -> ""
                else resolve dir
              in
              if Hashtbl.mem dirs p then cwd := p else say "no such directory: %s" dir
            | [ "pwd" ] -> say "/%s" !cwd
            | [ "add"; p ] ->
              let p = resolve p in
              if List.exists (fun (e : Restore.toc_entry) -> e.Restore.rel_path = p) toc
              then marked := p :: !marked
              else say "not on tape: %s" p
            | [ "unadd"; p ] ->
              let p = resolve p in
              marked := List.filter (fun m -> m <> p) !marked
            | [ "marked" ] -> List.iter (fun m -> say "* /%s" m) !marked
            | [ "extract" ] ->
              if !marked = [] then say "nothing marked"
              else begin
                let results =
                  Engine.restore_logical engine ~label ~fs ~target ~select:!marked ()
                in
                List.iter
                  (fun (r : Restore.apply_result) ->
                    say "extracted %d files (%d bytes) under %s"
                      r.Restore.files_restored r.Restore.bytes_restored target)
                  results;
                Store.save ~path:store engine;
                marked := []
              end
            | [ "quit" ] | [ "q" ] -> quit := true
            | _ -> say "?")
        done;
        0)
  in
  let label =
    Arg.(required & opt (some string) None & info [ "label" ] ~doc:"Backup label.")
  in
  let target =
    Arg.(
      value & opt string "/restored"
      & info (Usage.flag ~cmds:[ "browse" ] [ "target" ]) ~doc:"Extraction target.")
  in
  Cmd.v
    (Cmd.info "browse" ~doc:(summary "browse"))
    Term.(const run $ store_arg $ label $ target)

(* ---------------------------- replication ----------------------------- *)

(* The replication topology lives in its own RPL1 file next to the store:
   the store holds the primary volume, the repl file holds the replica
   volumes, the edges (with their links) and the schedule. The primary
   node is re-wired to the engine's live file system on every load. *)
let cmd_mirror =
  let run store action name repl_path upstream interval =
    handle (fun () ->
        with_store store (fun engine ->
            let repl_path =
              match repl_path with Some p -> p | None -> store ^ ".repl"
            in
            let load_t () =
              if Sys.file_exists repl_path then
                Repl.load
                  (Serde.reader (read_file repl_path))
                  ~primary_fs:(Engine.fs engine)
              else
                Repl.create
                  ~primary:(Volume.label (Fs.volume (Engine.fs engine)))
                  (Engine.fs engine)
            in
            let save_t t =
              let w = Serde.writer () in
              Repl.save w t;
              write_file repl_path (Serde.contents w)
            in
            let show_transfer (x : Repl.transfer) =
              say "%s → %s: %s %s (%d bytes, %.2f s on the wire)" x.Repl.xfer_src
                x.Repl.xfer_dst
                (match x.Repl.xfer_kind with
                | `Full -> "full"
                | `Incremental -> "incremental")
                x.Repl.xfer_snapshot x.Repl.xfer_payload_bytes x.Repl.xfer_wire_s
            in
            match (action, name) with
            | "status", _ ->
              let t = load_t () in
              List.iter
                (fun (st : Repl.status) ->
                  say "%-10s %-8s %-13s last=%-10s lag=%.0fs%s" st.Repl.st_name
                    (match st.Repl.st_role with
                    | `Primary -> "primary"
                    | `Replica -> "replica")
                    (Repl.state_name st.Repl.st_state)
                    (Option.value st.Repl.st_last ~default:"-")
                    st.Repl.st_lag_s
                    (match st.Repl.st_upstream with
                    | Some u -> " upstream=" ^ u
                    | None -> ""))
                (Repl.status t);
              false
            | "init", Some n ->
              let t = load_t () in
              let upstream =
                match upstream with Some u -> u | None -> Repl.primary t
              in
              Repl.add_replica t ~upstream ~interval_s:interval ~name:n ();
              save_t t;
              say "replica %s added downstream of %s%s" n upstream
                (if interval > 0.0 then
                   Printf.sprintf " (scheduled every %.0f s)" interval
                 else "");
              false
            | "update", _ ->
              let t = load_t () in
              let cp = Repl.checkpoint t in
              let transfers =
                match name with
                | Some n -> Repl.sync t ~name:n
                | None ->
                  List.concat_map
                    (fun (st : Repl.status) ->
                      if
                        st.Repl.st_role = `Primary
                        || st.Repl.st_state = Repl.Diverged
                      then []
                      else Repl.sync t ~name:st.Repl.st_name)
                    (Repl.status t)
              in
              say "checkpoint %s" cp;
              List.iter show_transfer transfers;
              save_t t;
              true
            | "promote", Some n ->
              let t = load_t () in
              let p = Repl.promote t ~name:n in
              say "promoted %s: RPO %.1f s, RTO %.2f s%s" p.Repl.promoted
                p.Repl.rpo_s p.Repl.rto_s
                (match p.Repl.divergence_base with
                | Some b -> Printf.sprintf " (diverging from %s)" b
                | None -> "");
              save_t t;
              true
            | "resync", Some n ->
              let t = load_t () in
              let xs = Repl.resync t ~name:n in
              (* resync may rewrite the store's own volume under the
                 engine's feet — remount so the saved store sees it *)
              if Repl.volume t ~name:n == Fs.volume (Engine.fs engine) then
                Engine.remount engine;
              List.iter show_transfer xs;
              (match Repl.verify t ~name:n with
              | Ok () -> say "%s verified byte-identical to %s" n (Repl.primary t)
              | Error ds ->
                raise (Fs.Error (Printf.sprintf "%s diverges after resync: %s" n
                                   (String.concat "; " ds))));
              save_t t;
              true
            | _ ->
              say
                "usage: mirror STORE (init NAME | update [NAME] | promote NAME \
                 | resync NAME | status)";
              false))
  in
  let action =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"ACTION" ~doc:"init, update, promote, resync or status.")
  in
  let node_name = Arg.(value & pos 2 (some string) None & info [] ~docv:"NAME") in
  let repl_file =
    Arg.(
      value
      & opt (some string) None
      & info
          (Usage.flag ~cmds:[ "mirror" ] [ "repl" ])
          ~docv:"FILE"
          ~doc:"Replication topology file (default: $(b,STORE).repl).")
  in
  let upstream =
    Arg.(
      value
      & opt (some string) None
      & info
          (Usage.flag ~cmds:[ "mirror" ] [ "upstream" ])
          ~docv:"NODE"
          ~doc:"Upstream node for $(b,init) (default: the current primary).")
  in
  let interval =
    Arg.(
      value & opt float 0.0
      & info
          (Usage.flag ~cmds:[ "mirror" ] [ "interval" ])
          ~docv:"SECONDS"
          ~doc:"Replication schedule interval for $(b,init).")
  in
  Cmd.v
    (Cmd.info "mirror" ~doc:(summary "mirror"))
    Term.(const run $ store_arg $ action $ node_name $ repl_file $ upstream $ interval)

(* ------------------------------- fleet ------------------------------- *)

(* Pretty-print the SLO attainment block of a saved night report. *)
let print_attainment s =
  match Fleet.attainment_summary s with
  | None -> false
  | Some (fleet, tenants, hosts) ->
    say "fleet SLO attainment: %.1f%%" (100.0 *. fleet);
    List.iter
      (fun (n, f) -> say "  tenant %-10s %.1f%%" n (100.0 *. f))
      tenants;
    List.iter (fun (n, f) -> say "  host   %-10s %.1f%%" n (100.0 *. f)) hosts;
    true

let print_night_report s =
  if not (print_attainment s) then false
  else begin
    let j = Slo.Json.parse s in
    (match Slo.Json.member "volumes" j with
    | Some vols -> (
      match
        (Slo.Json.member "completed" vols, Slo.Json.member "total" vols,
         Slo.Json.member "deadline_missed" vols)
      with
      | Some (Slo.Json.Num c), Some (Slo.Json.Num t), Some (Slo.Json.Num m) ->
        say "volumes: %.0f/%.0f completed, %.0f window miss(es)" c t m
      | _ -> ())
    | None -> ());
    (match Slo.Json.member "verdict" j with
    | Some (Slo.Json.Str v) -> say "bottleneck verdict: %s" v
    | _ -> ());
    (match
       Option.bind (Slo.Json.member "alerts" j) (Slo.Json.member "alerts")
     with
    | Some (Slo.Json.Arr items) ->
      if items = [] then say "alert journal: empty"
      else begin
        say "alert journal: %d transitions" (List.length items);
        List.iter
          (fun item ->
            match
              ( Slo.Json.member "rule" item,
                Slo.Json.member "kind" item,
                Slo.Json.member "t_s" item )
            with
            | Some (Slo.Json.Str r), Some (Slo.Json.Str k), Some (Slo.Json.Num t)
              ->
              say "  %10.3fs  %-8s %s" t k r
            | _ -> ())
          items
      end
    | _ -> ());
    true
  end

let cmd_fleet =
  let run action file status_file resume storm_after storm_drives storm_abort
      storm_seed rules_file report_out trace_out metrics_out =
    handle (fun () ->
        match action with
        | "plan" ->
          let spec = Fleet.Spec.parse (read_file file) in
          Fleet.pp_plan Format.std_formatter (Fleet.plan spec);
          0
        | "run" ->
          let spec = Fleet.Spec.parse (read_file file) in
          let p = Fleet.plan spec in
          let status_path =
            match status_file with Some s -> s | None -> file ^ ".status"
          in
          let resume_status =
            if resume && Sys.file_exists status_path then
              Some (Fleet.Status.load (Serde.reader (read_file status_path)))
            else None
          in
          let storm =
            if storm_drives > 0 then
              Some
                {
                  Fleet.storm_after;
                  storm_drives;
                  storm_abort_after = storm_abort;
                  storm_seed;
                }
            else None
          in
          let rules =
            match rules_file with
            | None -> []
            | Some rf -> Slo.parse_rules (read_file rf)
          in
          let night obs =
            let report, status =
              Fleet.run ?storm ?resume:resume_status ~rules p
            in
            let w = Serde.writer () in
            Fleet.Status.save w status;
            write_file status_path (Serde.contents w);
            Fleet.pp_report Format.std_formatter report;
            if obs <> None then
              Slo.pp_journal Format.std_formatter report.Fleet.rp_alerts;
            Option.iter
              (fun path ->
                let verdict =
                  Option.bind obs (fun o ->
                      List.find_map
                        (fun (ph : Analysis.phase) ->
                          if ph.Analysis.p_name = "fleet" then
                            Some
                              (Analysis.verdict_to_string ph.Analysis.p_verdict)
                          else None)
                        (Analysis.analyze o).Analysis.phases)
                in
                write_file path (Fleet.night_report ?verdict p report ~status);
                say "night report: %s" path)
              report_out;
            say "fleet catalog: %s (%d/%d volumes)" status_path
              (List.length status.Fleet.Status.st_completed)
              (List.length spec.Fleet.Spec.s_volumes);
            if report.Fleet.rp_failed = [] && report.Fleet.rp_unran = [] then 0
            else 1
          in
          (* The SLO engine and the night report need an armed plane even
             when no trace/metrics export was asked for. *)
          let obs =
            obs_plane ~need:(report_out <> None || rules_file <> None)
              trace_out metrics_out
          in
          with_obs obs ?trace_out ?metrics_out (fun () -> night obs)
        | "status" ->
          let st = Fleet.Status.load (Serde.reader (read_file file)) in
          Fleet.Status.pp Format.std_formatter st;
          (match report_out with
          | Some path when Sys.file_exists path ->
            ignore (print_attainment (read_file path))
          | _ -> ());
          0
        | "report" ->
          if print_night_report (read_file file) then 0
          else begin
            say "%s is not a night report (write one with fleet run \
                 --report-out)"
              file;
            1
          end
        | a ->
          say "unknown fleet action %S (expected plan, run, status or report)" a;
          2)
  in
  let action =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"ACTION" ~doc:"plan, run, status or report.")
  in
  let file =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"FILE"
          ~doc:
            "Fleet spec file (plan, run), fleet catalog file (status) or \
             night report JSON (report).")
  in
  let status_file =
    Arg.(
      value
      & opt (some string) None
      & info
          (Usage.flag ~cmds:[ "fleet" ] [ "status-file" ])
          ~docv:"FILE"
          ~doc:"Fleet catalog checkpoint file (default: $(b,FILE).status).")
  in
  let resume =
    Arg.(
      value & flag
      & info
          (Usage.flag ~cmds:[ "fleet" ] [ "resume" ])
          ~doc:"Skip volumes already completed in the fleet catalog.")
  in
  let storm_after =
    Arg.(
      value & opt int 0
      & info
          (Usage.flag ~cmds:[ "fleet" ] [ "storm-after" ])
          ~docv:"N"
          ~doc:"Fault storm: volumes completed before drives start dying.")
  in
  let storm_drives =
    Arg.(
      value & opt int 0
      & info
          (Usage.flag ~cmds:[ "fleet" ] [ "storm-drives" ])
          ~docv:"K" ~doc:"Fault storm: drives killed (0 = no storm).")
  in
  let storm_abort =
    Arg.(
      value
      & opt (some int) None
      & info
          (Usage.flag ~cmds:[ "fleet" ] [ "storm-abort" ])
          ~docv:"N"
          ~doc:"Fault storm: abort all admissions after $(docv) completions.")
  in
  let storm_seed =
    Arg.(
      value & opt int 1
      & info
          (Usage.flag ~cmds:[ "fleet" ] [ "storm-seed" ])
          ~docv:"SEED" ~doc:"Fault storm: drive-selection seed.")
  in
  let rules_file =
    Arg.(
      value
      & opt (some string) None
      & info
          (Usage.flag ~cmds:[ "fleet" ] [ "rules" ])
          ~docv:"FILE"
          ~doc:
            "Extra SLO rules ($(b,SLO1) format) evaluated during the night \
             on top of the built-in set.")
  in
  let report_out =
    Arg.(
      value
      & opt (some string) None
      & info
          (Usage.flag ~cmds:[ "fleet" ] [ "report-out" ])
          ~docv:"FILE"
          ~doc:
            "Night report JSON: written after $(b,run), read back by \
             $(b,status) to print SLO attainment.")
  in
  Cmd.v
    (Cmd.info "fleet" ~doc:(summary "fleet"))
    Term.(
      const run $ action $ file $ status_file $ resume $ storm_after
      $ storm_drives $ storm_abort $ storm_seed $ rules_file $ report_out
      $ trace_out_arg $ metrics_out_arg)

(* ------------------------------ profile ------------------------------ *)

(* Every command [profile] can wrap: all but itself. *)
let profiled_commands =
  [
    cmd_init;
    cmd_ls;
    cmd_cat;
    cmd_info;
    cmd_fsck;
    cmd_mkdir;
    cmd_put;
    cmd_rm;
    cmd_age;
    cmd_snap;
    cmd_quota;
    cmd_ln;
    cmd_serve;
    cmd_backup;
    cmd_catalog;
    cmd_restore;
    cmd_browse;
    cmd_disaster;
    cmd_verify;
    cmd_mirror;
    cmd_fleet;
  ]

let group commands =
  let doc = "operate a simulated WAFL-style filer with logical and physical backup" in
  let man =
    [
      `S Cmdliner.Manpage.s_description;
      `P "Commands (generated from the usage registry):";
      `Pre (Usage.table ());
    ]
  in
  Cmd.group (Cmd.info "backupctl" ~doc ~man) commands

let cmd_profile =
  let run out flame args =
    handle (fun () ->
        match args with
        | [] ->
          say "usage: profile [--out FILE] [--flame-out FILE] -- COMMAND [ARG]...";
          2
        | args ->
          let p = Prof.create () in
          let code =
            Fun.protect
              ~finally:(fun () ->
                (* The summary goes to stderr so the wrapped command's
                   stdout stays clean for its own consumers. *)
                Prof.pp_summary Format.err_formatter p;
                Option.iter (fun path -> write_file path (Prof.jsonl p)) out;
                Option.iter (fun path -> write_file path (Prof.folded p)) flame)
              (fun () ->
                Prof.with_armed p (fun () ->
                    Cmd.eval'
                      ~argv:(Array.of_list ("backupctl" :: args))
                      (group profiled_commands)))
          in
          code)
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info
          (Usage.flag ~cmds:[ "profile" ] [ "out"; "o" ])
          ~docv:"FILE" ~doc:"Write the profile as JSONL to $(docv).")
  in
  let flame =
    Arg.(
      value
      & opt (some string) None
      & info
          (Usage.flag ~cmds:[ "profile" ] [ "flame-out" ])
          ~docv:"FILE"
          ~doc:
            "Write folded flamegraph stacks to $(docv) (render with \
             flamegraph.pl or speedscope).")
  in
  let args =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"COMMAND"
          ~doc:
            "Command to run under the profiler, with its arguments. Put \
             $(b,--) before it so its own flags are not parsed by \
             $(b,profile).")
  in
  Cmd.v (Cmd.info "profile" ~doc:(summary "profile")) Term.(const run $ out $ flame $ args)

(* -------------------------------- main -------------------------------- *)

let commands = profiled_commands @ [ cmd_profile ]

let run () =
  (* Every command must have a summary and every summary a command; a
     mismatch is a bug in this file, caught at startup. *)
  let names = List.map Cmd.name commands in
  assert (
    List.sort compare names
    = List.sort compare (List.map fst (Usage.commands ())));
  Cmd.eval' (group commands)

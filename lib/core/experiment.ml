module Resource = Repro_sim.Resource
module Cost = Repro_sim.Cost
module Disk = Repro_block.Disk
module Volume = Repro_block.Volume
module Tape = Repro_tape.Tape
module Library = Repro_tape.Library
module Tapeio = Repro_tape.Tapeio
module Fs = Repro_wafl.Fs
module Dump = Repro_dump.Dump
module Restore = Repro_dump.Restore
module Image_dump = Repro_image.Image_dump
module Image_restore = Repro_image.Image_restore
module Generator = Repro_workload.Generator
module Ager = Repro_workload.Ager
module Compare = Repro_workload.Compare

type config = {
  data_bytes : int;
  seed : int;
  aged : bool;
  churn_rounds : int;
  costs : Cost.t;
  profile : Generator.profile;
}

(* The paper's "home" volume: 31 disks in 3 RAID groups, parity
   included. *)
let groups = 3
let disks_per_group = 11
let auto_cp_ops = 20_000

(* The single-stream read pipeline of the files phase: dump reads one
   file at a time, so each file costs an unhidden positioning latency
   and its bytes stream at roughly one spindle's rate boosted by
   read-ahead — not the whole array's. This is what held the paper's
   one-tape logical dump to ~7 MB/s against an 8.4 MB/s drive. *)
let dump_file_latency_s = 0.004
let dump_stream_bytes_s = 12.5e6

let default_config () =
  {
    data_bytes = 64 * 1024 * 1024;
    seed = 1999;
    aged = true;
    churn_rounds = 12;
    costs = Cost.f630;
    (* Larger median than Generator.default so the file count per byte is
       closer to the paper's engineering volume; per-file costs then scale
       comparably despite the much smaller volume. *)
    profile = { Generator.default with Generator.median_file_bytes = 24_576.0; sigma = 1.3 };
  }

let quick_config () =
  {
    (default_config ()) with
    data_bytes = 8 * 1024 * 1024;
    churn_rounds = 4;
  }

type operation = {
  op_name : string;
  report : Instrument.report;
  payload_bytes : int;
  stream_count : int;
}

let elapsed op = op.report.Instrument.elapsed
let mb_s op = Repro_util.Units.mb_per_s ~bytes:op.payload_bytes ~seconds:(elapsed op)
let gb_h op = Repro_util.Units.gb_per_hour ~bytes:op.payload_bytes ~seconds:(elapsed op)

type basic = {
  cfg : config;
  tapes : int;
  files : int;
  fragmentation : float;
  logical_backup : operation;
  logical_restore : operation;
  physical_backup : operation;
  physical_restore : operation;
}

type concurrent = {
  home_solo : operation;
  rlse_solo : operation;
  combined : Instrument.report;
  home_combined_elapsed : float;
  rlse_combined_elapsed : float;
}

(* ------------------------------------------------------------------ *)

let make_volume ~label ~bytes =
  (* Enough room for data plus metadata, snapshots and COW churn. *)
  let data_disks = groups * (disks_per_group - 1) in
  let need_blocks = (bytes / 4096 * 2) + 4096 in
  let blocks_per_disk = (need_blocks + data_disks - 1) / data_disks in
  Volume.create ~label
    (Volume.geometry ~groups ~disks_per_group
       ~blocks_per_disk ())

let make_fs cfg ~cpu vol =
  let config = { (Fs.default_config ()) with Fs.cpu = Some cpu; costs = cfg.costs;
                 auto_cp_ops } in
  (* The filer always runs with NVRAM: operations are logged (and charged)
     until a consistency point retires them; a full log forces a CP. *)
  Fs.mkfs ~config ~nvram:(Repro_wafl.Nvram.create ()) vol

let qtree_path i = Printf.sprintf "/home/q%d" i

let build_source cfg ~cpu ~qtrees ~bytes =
  let vol = make_volume ~label:"home" ~bytes in
  let fs = make_fs cfg ~cpu vol in
  ignore (Fs.mkdir fs "/home" ~perms:0o755);
  for i = 0 to qtrees - 1 do
    ignore (Fs.qtree_create fs (qtree_path i) ~perms:0o755);
    let profile = { cfg.profile with Generator.seed = cfg.seed + (37 * i) } in
    ignore
      (Generator.populate ~profile ~fs ~root:(qtree_path i)
         ~total_bytes:(bytes / qtrees) ())
  done;
  if cfg.aged then
    for i = 0 to qtrees - 1 do
      let churn =
        { Ager.default_churn with Ager.seed = cfg.seed + (91 * i);
          rounds = cfg.churn_rounds }
      in
      ignore (Ager.age ~churn ~fs ~root:(qtree_path i) ())
    done;
  Fs.cp fs;
  (fs, vol)

let tape_libs ~prefix n =
  Array.init n (fun i ->
      Library.create ~params:Tape.dlt7000 ~slots:64
        ~label:(Printf.sprintf "%s%d" prefix i)
        ())

(* ------------------------------------------------------------------ *)

let run_basic ?(tapes = 1) cfg =
  if tapes < 1 then invalid_arg "Experiment.run_basic";
  let n = tapes in
  let cpu = Resource.create "cpu" in
  let fs, vol = build_source cfg ~cpu ~qtrees:n ~bytes:cfg.data_bytes in
  let files = List.length (Generator.file_paths fs "/home") in
  let fragmentation = Ager.fragmentation fs "/home" in

  (* ---------------- logical backup ---------------- *)
  let dump_libs = tape_libs ~prefix:"ld" n in
  let (), snap_create =
    Instrument.collect ~resources:[ cpu; Volume.resource vol ] (fun observe ->
        observe "creating snapshot" (fun () -> Fs.snapshot_create fs "dump"))
  in
  let view = Fs.snapshot_view fs "dump" in
  let dump_results =
    Array.init n (fun i ->
        let tape_res = Tape.resource (Library.drive dump_libs.(i)) in
        let result, stages =
          Instrument.collect ~resources:[ cpu; Volume.resource vol; tape_res ]
            (fun observe ->
              Dump.run ~observe ~cpu ~view ~subtree:(qtree_path i)
                ~label:(qtree_path i) ~date:(Fs.now fs)
                ~sink:(Tapeio.sink dump_libs.(i))
                ())
        in
        (* The per-stream read pipeline: per-file positioning latency plus
           single-stream streaming rate (see default_config). *)
        let serial = Resource.create (Printf.sprintf "serial:d%d" i) in
        let pipeline_work =
          (Float.of_int result.Dump.files_dumped *. dump_file_latency_s)
          +. (Float.of_int result.Dump.bytes_written /. dump_stream_bytes_s)
        in
        let stages =
          Instrument.add_demand stages ~stage:"dumping files"
            (Instrument.demand serial pipeline_work)
        in
        (result, stages))
  in
  let (), snap_delete =
    Instrument.collect ~resources:[ cpu; Volume.resource vol ] (fun observe ->
        observe "deleting snapshot" (fun () -> Fs.snapshot_delete fs "dump"))
  in
  let logical_streams =
    List.init n (fun i ->
        let _, stages = dump_results.(i) in
        let stages =
          if i = 0 then snap_create @ stages @ snap_delete else stages
        in
        { Instrument.stream_label = Printf.sprintf "ldump%d" i; stages })
  in
  let logical_backup =
    {
      op_name = "Logical Backup";
      report = Instrument.run logical_streams;
      payload_bytes =
        Array.fold_left (fun acc (r, _) -> acc + r.Dump.bytes_written) 0 dump_results;
      stream_count = n;
    }
  in

  (* ---------------- logical restore ---------------- *)
  let ldst_vol = make_volume ~label:"ldst" ~bytes:cfg.data_bytes in
  let ldst_fs = make_fs cfg ~cpu ldst_vol in
  ignore (Fs.mkdir ldst_fs "/home" ~perms:0o755);
  let restore_streams =
    List.init n (fun i ->
        let tape_res = Tape.resource (Library.drive dump_libs.(i)) in
        let serial = Resource.create (Printf.sprintf "serial:%d" i) in
        let session =
          Restore.session ~cpu ~fs:ldst_fs ~target:(qtree_path i) ()
        in
        let result, stages =
          Instrument.collect
            ~resources:[ cpu; Volume.resource ldst_vol; tape_res ]
            (fun observe ->
              Restore.apply ~observe session (Tapeio.source dump_libs.(i)))
        in
        let creates =
          result.Restore.files_restored + result.Restore.dirs_created
        in
        let stages =
          Instrument.add_demand stages ~stage:"creating files"
            (Instrument.demand serial
               (Float.of_int creates *. Engine.io_model.Engine.restore_create_latency_s))
        in
        { Instrument.stream_label = Printf.sprintf "lrest%d" i; stages })
  in
  let logical_restore =
    {
      op_name = "Logical Restore";
      report = Instrument.run restore_streams;
      payload_bytes = logical_backup.payload_bytes;
      stream_count = n;
    }
  in
  (match Compare.trees ~src:(fs, "/home") ~dst:(ldst_fs, "/home") () with
  | Ok () -> ()
  | Error d ->
    failwith ("logical restore verification failed: " ^ String.concat "; " d));

  (* ---------------- physical backup ---------------- *)
  let img_libs = tape_libs ~prefix:"im" n in
  let (), isnap_create =
    Instrument.collect ~resources:[ cpu; Volume.resource vol ] (fun observe ->
        observe "creating snapshot" (fun () -> Fs.snapshot_create fs "img"))
  in
  let img_tape0 = Tape.resource (Library.drive img_libs.(0)) in
  let img_result, img_stages =
    Instrument.collect ~resources:[ cpu; Volume.resource vol; img_tape0 ]
      (fun observe ->
        Image_dump.full ~observe ~cpu ~fs ~snapshot:"img"
          ~sink:(Tapeio.sink img_libs.(0))
          ())
  in
  let (), isnap_delete =
    Instrument.collect ~resources:[ cpu; Volume.resource vol ] (fun observe ->
        observe "deleting snapshot" (fun () -> Fs.snapshot_delete fs "img"))
  in
  let physical_streams =
    if n = 1 then
      [ { Instrument.stream_label = "idump0";
          stages = isnap_create @ img_stages @ isnap_delete } ]
    else
      List.init n (fun i ->
          let split = Instrument.scale_stages img_stages (1.0 /. Float.of_int n) in
          let split =
            Instrument.retarget split ~from_prefix:"tape:"
              ~to_resource:(Tape.resource (Library.drive img_libs.(i)))
          in
          let split =
            if i = 0 then isnap_create @ split @ isnap_delete else split
          in
          { Instrument.stream_label = Printf.sprintf "idump%d" i; stages = split })
  in
  let physical_backup =
    {
      op_name = "Physical Backup";
      report = Instrument.run physical_streams;
      payload_bytes = img_result.Image_dump.bytes_written;
      stream_count = n;
    }
  in

  (* ---------------- physical restore ---------------- *)
  let pdst_vol = make_volume ~label:"pdst" ~bytes:cfg.data_bytes in
  let _rr, prest_stages =
    Instrument.collect ~resources:[ cpu; Volume.resource pdst_vol; img_tape0 ]
      (fun observe ->
        Image_restore.apply ~observe ~cpu ~volume:pdst_vol
          (Tapeio.source img_libs.(0)))
  in
  let prest_streams =
    if n = 1 then [ { Instrument.stream_label = "irest0"; stages = prest_stages } ]
    else
      List.init n (fun i ->
          let split = Instrument.scale_stages prest_stages (1.0 /. Float.of_int n) in
          let split =
            Instrument.retarget split ~from_prefix:"tape:"
              ~to_resource:(Tape.resource (Library.drive img_libs.(i)))
          in
          { Instrument.stream_label = Printf.sprintf "irest%d" i; stages = split })
  in
  let physical_restore =
    {
      op_name = "Physical Restore";
      report = Instrument.run prest_streams;
      payload_bytes = img_result.Image_dump.bytes_written;
      stream_count = n;
    }
  in
  let pdst_fs = Fs.mount pdst_vol in
  (match Compare.trees ~src:(fs, "/home") ~dst:(pdst_fs, "/home") () with
  | Ok () -> ()
  | Error d ->
    failwith ("physical restore verification failed: " ^ String.concat "; " d));

  {
    cfg;
    tapes = n;
    files;
    fragmentation;
    logical_backup;
    logical_restore;
    physical_backup;
    physical_restore;
  }

(* ------------------------------------------------------------------ *)

let measure_volume_dump cfg ~cpu ~name ~bytes =
  let fs, vol = build_source { cfg with seed = cfg.seed + Hashtbl.hash name } ~cpu
      ~qtrees:1 ~bytes
  in
  let lib = (tape_libs ~prefix:(name ^ "-t") 1).(0) in
  Fs.snapshot_create fs "dump";
  let view = Fs.snapshot_view fs "dump" in
  let result, stages =
    Instrument.collect
      ~resources:[ cpu; Volume.resource vol; Tape.resource (Library.drive lib) ]
      (fun observe ->
        Dump.run
          ~observe:(fun label f -> observe (name ^ " " ^ label) f)
          ~cpu ~view ~subtree:(qtree_path 0) ~label:name
          ~date:(Fs.now fs) ~sink:(Tapeio.sink lib) ())
  in
  Fs.snapshot_delete fs "dump";
  (result, stages)

let run_concurrent cfg =
  let cpu = Resource.create "cpu" in
  let home_result, home_stages =
    measure_volume_dump cfg ~cpu ~name:"home" ~bytes:cfg.data_bytes
  in
  let rlse_result, rlse_stages =
    measure_volume_dump cfg ~cpu ~name:"rlse" ~bytes:(cfg.data_bytes * 2 / 3)
  in
  let solo name stages (result : Dump.result) =
    {
      op_name = name;
      report = Instrument.run [ { Instrument.stream_label = name; stages } ];
      payload_bytes = result.Dump.bytes_written;
      stream_count = 1;
    }
  in
  let home_solo = solo "home dump (solo)" home_stages home_result in
  let rlse_solo = solo "rlse dump (solo)" rlse_stages rlse_result in
  let combined =
    Instrument.run
      [
        { Instrument.stream_label = "home"; stages = home_stages };
        { Instrument.stream_label = "rlse"; stages = rlse_stages };
      ]
  in
  {
    home_solo;
    rlse_solo;
    combined;
    home_combined_elapsed = List.assoc "home" combined.Instrument.stream_finish;
    rlse_combined_elapsed = List.assoc "rlse" combined.Instrument.stream_finish;
  }

(* ------------------------------------------------------------------ *)

let stage_cpu s = Instrument.stage_utilization s "cpu"

let stage_rate_prefix (s : Instrument.stage_summary) prefix =
  let e = Instrument.stage_elapsed s in
  if e <= 0.0 then 0.0
  else
    List.fold_left
      (fun acc (name, bytes) ->
        if String.starts_with ~prefix name then
          acc +. (Float.of_int bytes /. 1_000_000.0 /. e)
        else acc)
      0.0 s.Instrument.stage_bytes

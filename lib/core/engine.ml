module Resource = Repro_sim.Resource
module Clock = Repro_sim.Clock
module Fs = Repro_wafl.Fs
module Fsinfo = Repro_wafl.Fsinfo
module Volume = Repro_block.Volume
module Library = Repro_tape.Library
module Tape = Repro_tape.Tape
module Tapeio = Repro_tape.Tapeio
module Dump = Repro_dump.Dump
module Restore = Repro_dump.Restore
module Dumpdates = Repro_dump.Dumpdates
module Filter = Repro_dump.Filter
module Image_dump = Repro_image.Image_dump
module Image_restore = Repro_image.Image_restore
module Retry = Repro_fault.Retry
module Obs = Repro_obs.Obs
module Analysis = Repro_obs.Analysis
module Link = Repro_net.Link
module Session = Repro_net.Session
module Mover = Repro_net.Mover

type io_model = {
  logical_read_bytes_s : float;
  image_read_bytes_s : float;
  logical_write_bytes_s : float;
  image_write_bytes_s : float;
  restore_create_latency_s : float;
}

(* Tuned against the paper's Table 4/5 shape over a DLT7000-class drive
   (~8.5 MB/s with compression): a logical dump's inode-order reads pull
   ~2.75 drives' worth of bandwidth from the array before the disks
   saturate, while an image dump's sequential reads comfortably feed four
   drives. *)
let io_model =
  {
    logical_read_bytes_s = 23.4e6;
    image_read_bytes_s = 100e6;
    logical_write_bytes_s = 23.4e6;
    image_write_bytes_s = 100e6;
    (* Serialization latency per file creation on the restore path: the
       synchronous request/response cost that keeps the paper's "creating
       files" stage from being CPU-saturated. The paper tables
       ([Experiment]) charge the same figure. *)
    restore_create_latency_s = 0.0025;
  }

(* One drive slot in the pool: a stacker plus where it lives. A local
   attachment ([att_host = ""]) is cabled to the backup host; a remote one
   sits on a tape server reached over that host's link. *)
type attachment = { att_lib : Library.t; att_host : string }

type t = {
  mutable e_fs : Fs.t;
  mutable atts : attachment array;
  mutable links : (string * Link.t) list; (* host -> link, attach order *)
  mutable sessions : (string * Session.t) list; (* connected lazily *)
  dd : Dumpdates.t;
  cat : Catalog.t;
  clock : Clock.t option;
  mutable streams : int array; (* streams written per drive *)
  mutable snap_seq : int;
  mutable stats : Scheduler.pool_stats option;
}

let create ?clock ~fs ~libraries () =
  if libraries = [] then invalid_arg "Engine.create: no tape libraries";
  {
    e_fs = fs;
    atts =
      Array.of_list
        (List.map (fun l -> { att_lib = l; att_host = "" }) libraries);
    links = [];
    sessions = [];
    dd = Dumpdates.create ();
    cat = Catalog.create ();
    clock;
    streams = Array.make (List.length libraries) 0;
    snap_seq = 0;
    stats = None;
  }

let fs t = t.e_fs

(* After a physical restore/resync rewrites the volume underneath the
   mounted file system, the old handle is stale — and Store.save's CP
   through it would clobber the restored image. *)
let remount t =
  t.e_fs <- Fs.mount ~config:(Fs.config_of t.e_fs) (Fs.volume t.e_fs)

let catalog t = t.cat
let last_stats t = t.stats
let drive_count t = Array.length t.atts
let lib_of t drive = t.atts.(drive).att_lib
let drive_host t drive = t.atts.(drive).att_host
let hosts t = List.map fst t.links
let link_to t ~host = List.assoc_opt host t.links

let remote_drives t ~host =
  List.filter
    (fun d -> String.equal t.atts.(d).att_host host)
    (List.init (Array.length t.atts) Fun.id)

type attach_error = Empty_host | No_libraries of string | Link_configured of string

exception Attach_invalid of attach_error

let attach_error_message = function
  | Empty_host -> "tape server host name must not be empty"
  | No_libraries h -> Printf.sprintf "tape server %S needs at least one drive" h
  | Link_configured h -> Printf.sprintf "the link to %S is already configured" h

let attach_remote t ~host ?link_params ~libraries () =
  if host = "" then raise (Attach_invalid Empty_host);
  if libraries = [] then raise (Attach_invalid (No_libraries host));
  (match (List.assoc_opt host t.links, link_params) with
  | Some _, Some _ -> raise (Attach_invalid (Link_configured host))
  | Some _, None -> ()
  | None, p -> t.links <- t.links @ [ (host, Link.create ?params:p ~label:host ()) ]);
  let base = Array.length t.atts in
  let added =
    Array.of_list (List.map (fun l -> { att_lib = l; att_host = host }) libraries)
  in
  t.atts <- Array.append t.atts added;
  t.streams <- Array.append t.streams (Array.make (Array.length added) 0);
  List.init (Array.length added) (fun i -> base + i)

(* The control connection to a tape server, dialed on first use and kept
   for the engine's lifetime (data streams come and go per part). *)
let session_for t host =
  match List.assoc_opt host t.sessions with
  | Some s -> s
  | None ->
    let s = Session.connect ~host (List.assoc host t.links) in
    t.sessions <- t.sessions @ [ (host, s) ];
    s

(* Sum a schedule into the operation's stats: a restore chain runs one
   schedule per entry, and its makespans and per-drive busy times add. *)
let note_stats t (s : Scheduler.pool_stats) =
  let merged =
    match t.stats with
    | None -> s
    | Some prev ->
      let same d (d', _, _) = Scheduler.Resource_id.equal d' d in
      let p_slots =
        List.fold_left
          (fun acc (d, b, n) ->
            match List.partition (same d) acc with
            | [ (_, b0, n0) ], rest -> rest @ [ (d, b0 +. b, n0 + n) ]
            | _ -> acc @ [ (d, b, n) ])
          prev.Scheduler.p_slots s.Scheduler.p_slots
      in
      {
        Scheduler.p_elapsed = prev.Scheduler.p_elapsed +. s.Scheduler.p_elapsed;
        p_slots;
      }
  in
  t.stats <- Some merged

let charge_backoff t secs =
  match t.clock with Some c -> Clock.advance c secs | None -> ()

let media_of lib before =
  let all = List.map Tape.media_label (Library.used_media lib) in
  List.filter (fun m -> not (List.mem m before)) all

(* Run one part's real work [f] on [drive] and build its demand vector.
   [f] returns the part's result and, for a remote drive, its shipment.
   The vector is, in order: the wall time the shipment spent on the wire,
   as a demand on a key unique to this part (window/latency stalls are
   real elapsed time even when the link's measured busy-seconds are low);
   the modeled [work v] seconds on the shared [disk]; and busy-time
   deltas on the drive's tape and link across [f]. The execution is
   atomic on simulated time, so those deltas are this part's alone. The
   disks are deliberately NOT measured: the per-block service model
   over-serializes what is really an array behind a buffer cache, so
   disk contention enters only through the [io_model] demand. The part's
   span closes annotated with the vector: the critical-path analysis
   charges each step's gating intervals from it. *)
let part_demands t ~drive ~part ~disk ~work f =
  let resources =
    Tape.resource (Library.drive (lib_of t drive))
    :: (match link_to t ~host:(drive_host t drive) with
      | Some link -> [ Link.resource link ]
      | None -> [])
  in
  let before = List.map (fun r -> (r, Resource.busy r)) resources in
  let v, shipment = f () in
  let measured =
    List.map
      (fun (r, b) ->
        Scheduler.demand_of_resource r (Float.max 0.0 (Resource.busy r -. b)))
      before
  in
  let wire =
    match Option.bind shipment Mover.xfer with
    | None -> []
    | Some x ->
      [
        Scheduler.demand
          (Scheduler.Resource_id.Net { host = drive_host t drive; part })
          x.Session.xf_elapsed_s;
      ]
  in
  let demands = wire @ (Scheduler.demand_of_resource disk (work v) :: measured) in
  if Obs.enabled () then
    Obs.annotate
      (List.map
         (fun (d : Scheduler.demand) ->
           ("demand:" ^ d.Scheduler.key, Obs.Float d.Scheduler.work))
         demands);
  (v, demands)

let drive_slot d = Scheduler.Resource_id.Drive d

let slot_drive = function
  | Scheduler.Resource_id.Drive d -> d
  | _ -> assert false

(* Schedule an operation's parts on the drive slots. Each part is
   [(part, claim, run)]: [run ~drive] does the part's real work on the
   granted drive and returns its result and demand vector. A completion
   fires [on_done] and an [instant] event. Those instants and the
   [<phase>.util.*] timelines continue where the operation's earlier
   schedules (a restore chain's previous entries) left off: the offset is
   the stats so far, 0 for a backup, whose stats [with_backup_span]
   resets. *)
let run_parts t ~phase ~instant ?fatal ?max_active ?(on_done = ignore) ~drives
    parts =
  let offset = match t.stats with Some s -> s.Scheduler.p_elapsed | None -> 0.0 in
  let sampler =
    if Obs.enabled () then Some (Analysis.sampler ~prefix:phase ~t0:offset ())
    else None
  in
  let part_of = Array.of_list (List.map (fun (p, _, _) -> p) parts) in
  let tasks =
    List.map
      (fun (p, claim, run) ->
        Scheduler.task
          ~label:(Printf.sprintf "%s part %d" phase (p + 1))
          ~claims:[ claim ]
          (fun ~now:_ ~granted -> run ~drive:(slot_drive (List.hd granted))))
      parts
  in
  let on_complete i (g : _ Scheduler.grant) =
    on_done g.Scheduler.g_value;
    Obs.instant instant
      ~attrs:
        [
          ("part", Obs.Int (part_of.(i) + 1));
          ("drive", Obs.Int (slot_drive (List.hd g.Scheduler.g_slots)));
          ("sim_start_s", Obs.Float (offset +. g.Scheduler.g_started));
          ("sim_finish_s", Obs.Float (offset +. g.Scheduler.g_finished));
        ]
  in
  let outcomes, stats =
    Scheduler.run_tasks ?fatal ?max_active ~on_complete
      ?on_interval:(Option.map Analysis.sampler_segment sampler)
      ~slots:(List.map drive_slot drives) tasks
  in
  Option.iter Analysis.sampler_flush sampler;
  note_stats t stats;
  (outcomes, stats)

let snapshot_exists t name =
  List.exists
    (fun (s : Fsinfo.snap_entry) -> String.equal s.snap_name name)
    (Fs.snapshot_entries t.e_fs)

let last_physical_snapshot t ~label =
  match
    List.rev
      (List.filter
         (fun (e : Catalog.entry) ->
           e.Catalog.strategy = Strategy.Physical && String.equal e.Catalog.label label)
         (Catalog.entries t.cat))
  with
  | e :: _ -> Some e.Catalog.snapshot
  | [] -> None

(* Position the stacker to append: locate end of data (a read may have
   left the drive mid-tape, and writing there would truncate every stream
   beyond it). An interrupted dump additionally leaves the last cartridge
   ending in a data record with no filemark: seal it so the garbage
   occupies a stream index of its own and every later stream keeps clean
   filemark addressing. *)
let seal_dangling t ~drive =
  let lib = lib_of t drive in
  Library.ensure_appendable lib;
  let d = Library.drive lib in
  (match Tape.loaded d with Some _ -> Tape.seek_end d | None -> ());
  if Library.dangling_stream lib then begin
    Tape.write_filemark d;
    t.streams.(drive) <- t.streams.(drive) + 1
  end

(* Build the checkpoint describing a fresh job, creating its snapshot; a
   stale checkpoint for the same (strategy, label) is an abandoned job —
   discard it along with its snapshot. *)
let fresh_checkpoint t ~strategy ~level ~subtree ~drives ~label ~parts =
  (match Catalog.find_checkpoint t.cat ~strategy ~label with
  | Some stale ->
    if stale.Catalog.ck_snapshot <> "" && snapshot_exists t stale.Catalog.ck_snapshot
    then Fs.snapshot_delete t.e_fs stale.Catalog.ck_snapshot;
    Catalog.clear_checkpoint t.cat ~strategy ~label
  | None -> ());
  let date = Fs.now t.e_fs in
  t.snap_seq <- t.snap_seq + 1;
  let snapshot_create name =
    Obs.with_span "creating snapshot"
      ~attrs:[ ("snapshot", Obs.Str name) ]
      (fun () -> Fs.snapshot_create t.e_fs name)
  in
  let snap, base =
    match strategy with
    | Strategy.Logical ->
      let snap = Printf.sprintf "dump.%d" t.snap_seq in
      snapshot_create snap;
      (snap, "")
    | Strategy.Physical ->
      let snap = Printf.sprintf "image.%d" t.snap_seq in
      snapshot_create snap;
      if level = 0 then (snap, "")
      else (
        match last_physical_snapshot t ~label with
        | Some b -> (snap, b)
        | None ->
          Fs.snapshot_delete t.e_fs snap;
          raise (Fs.Error "physical incremental requires a prior physical backup"))
  in
  {
    Catalog.ck_strategy = strategy;
    ck_label = label;
    ck_level = level;
    ck_date = date;
    ck_subtree = subtree;
    ck_drive = List.hd drives;
    ck_drives = drives;
    ck_parts = parts;
    ck_snapshot = snap;
    ck_base_snapshot = base;
    ck_media = [];
    ck_done = [];
  }

module Job = struct
  type error =
    | Empty_subtree
    | Relative_subtree of string
    | Bad_level of int
    | Bad_parts of int
    | Empty_pool
    | Duplicate_drive of int
    | Unknown_drive of int

  exception Invalid of error

  let error_message = function
    | Empty_subtree -> "job subtree must not be empty"
    | Relative_subtree s -> Printf.sprintf "job subtree %S is not absolute" s
    | Bad_level l -> Printf.sprintf "dump level %d out of range (0-9)" l
    | Bad_parts p -> Printf.sprintf "parts must be >= 1 (got %d)" p
    | Empty_pool -> "empty drive pool"
    | Duplicate_drive d -> Printf.sprintf "drive %d appears twice in the pool" d
    | Unknown_drive d -> Printf.sprintf "no drive %d attached" d

  type t = {
    strategy : Strategy.t;
    level : int;
    subtree : string;
    exclude : Filter.t option;
    label : string option;
    parts : int;
    drives : int list option;
    resume : bool;
  }

  let make ~strategy ?(level = 0) ?(subtree = "/") ?exclude ?label ?(parts = 1)
      ?drives ?(resume = false) () =
    if subtree = "" then raise (Invalid Empty_subtree);
    if subtree.[0] <> '/' then raise (Invalid (Relative_subtree subtree));
    if level < 0 || level > 9 then raise (Invalid (Bad_level level));
    if parts < 1 then raise (Invalid (Bad_parts parts));
    (match drives with
    | Some [] -> raise (Invalid Empty_pool)
    | Some pool ->
      let seen = Hashtbl.create 8 in
      List.iter
        (fun d ->
          if Hashtbl.mem seen d then raise (Invalid (Duplicate_drive d));
          Hashtbl.add seen d ())
        pool
    | None -> ());
    { strategy; level; subtree; exclude; label; parts; drives; resume }

  let label job = match job.label with Some l -> l | None -> job.subtree
end

let do_backup t ~strategy ~level ~subtree ?exclude ~drives:requested ~label
    ~parts ~resume () =
  (* The drive pool: an explicit request wins; a resume otherwise reuses
     the pool the job was launched with. It is checked before anything
     touches the file system or the catalog. *)
  let pool_of (ck : Catalog.checkpoint) =
    match (requested, ck.Catalog.ck_drives) with
    | Some l, _ -> l
    | None, [] -> [ ck.Catalog.ck_drive ]
    | None, l -> l
  in
  let check_pool =
    List.iter (fun d ->
        if d < 0 || d >= drive_count t then raise (Job.Invalid (Job.Unknown_drive d)))
  in
  let ck =
    if resume then (
      match Catalog.find_checkpoint t.cat ~strategy ~label with
      | Some ck ->
        check_pool (pool_of ck);
        ck
      | None ->
        raise (Fs.Error (Printf.sprintf "no interrupted backup of %S to resume" label)))
    else begin
      let drives = Option.value requested ~default:[ 0 ] in
      check_pool drives;
      fresh_checkpoint t ~strategy ~level ~subtree ~drives ~label ~parts
    end
  in
  Catalog.set_checkpoint t.cat ck;
  let level = ck.Catalog.ck_level in
  let subtree = ck.Catalog.ck_subtree in
  let parts = ck.Catalog.ck_parts in
  let date = ck.Catalog.ck_date in
  let drives = pool_of ck in
  Obs.annotate
    [
      ("level", Obs.Int level);
      ("parts", Obs.Int parts);
      ("drives", Obs.Int (List.length drives));
      ("snapshot", Obs.Str ck.Catalog.ck_snapshot);
    ];
  (* Seal whatever streams an interrupting fault cut off, on every drive
     in the pool. *)
  List.iter (fun d -> seal_dangling t ~drive:d) drives;
  let media_before =
    List.map
      (fun d -> (d, List.map Tape.media_label (Library.used_media (lib_of t d))))
      drives
  in
  let done_parts = ref ck.Catalog.ck_done in
  let media_acc = ref ck.Catalog.ck_media in
  let merge_media () =
    List.iter
      (fun (d, before) ->
        List.iter
          (fun m -> if not (List.mem m !media_acc) then media_acc := !media_acc @ [ m ])
          (media_of (lib_of t d) before))
      media_before
  in
  let save_checkpoint () =
    Catalog.set_checkpoint t.cat
      { ck with Catalog.ck_done = !done_parts; ck_media = !media_acc }
  in
  let is_done p =
    List.exists (fun (d : Catalog.part_done) -> d.Catalog.part = p) !done_parts
  in
  let disk = Volume.resource (Fs.volume t.e_fs) in
  let dump_part p ~drive =
    let host = drive_host t drive in
    Obs.with_span "part"
      ~attrs:
        [
          ("part", Obs.Int (p + 1));
          ("parts", Obs.Int parts);
          ("drive", Obs.Int drive);
          ("host", Obs.Str host);
        ]
    @@ fun () ->
    let lib = lib_of t drive in
    (* The read path is mostly absorbed by the buffer cache, so the
       contention the paper measures — inode-order logical reads
       saturating the array, sequential image reads not — enters as a
       modeled demand on the shared source disks. *)
    let rate =
      match strategy with
      | Strategy.Logical -> io_model.logical_read_bytes_s
      | Strategy.Physical -> io_model.image_read_bytes_s
    in
    let (bytes, degraded), demands =
      part_demands t ~drive ~part:p ~disk
        ~work:(fun (bytes, _) -> Float.of_int bytes /. rate)
        (fun () ->
          Retry.run ~charge:(charge_backoff t)
            ~cleanup:(fun _ -> seal_dangling t ~drive)
            ~label:(Printf.sprintf "%s part %d/%d" label (p + 1) parts)
            (fun () ->
              let shipment, sink =
                if host = "" then (None, Tapeio.sink lib)
                else
                  let sh, sink =
                    Mover.ship_to ~label:"mover.sink" ~session:(session_for t host)
                      (Tapeio.library_backend lib)
                  in
                  (Some sh, sink)
              in
              let counts =
                match strategy with
                | Strategy.Logical ->
                  let view = Fs.snapshot_view t.e_fs ck.Catalog.ck_snapshot in
                  let r =
                    Dump.run ~level ~dumpdates:t.dd ~record:false ?exclude
                      ~part:(p, parts) ~view ~subtree ~label ~date ~sink ()
                  in
                  (r.Dump.bytes_written, r.Dump.files_skipped)
                | Strategy.Physical ->
                  let r =
                    if ck.Catalog.ck_base_snapshot = "" then
                      Image_dump.full ~part:(p, parts) ~fs:t.e_fs
                        ~snapshot:ck.Catalog.ck_snapshot ~sink ()
                    else
                      Image_dump.incremental ~part:(p, parts) ~fs:t.e_fs
                        ~base:ck.Catalog.ck_base_snapshot
                        ~snapshot:ck.Catalog.ck_snapshot ~sink ()
                  in
                  (r.Image_dump.bytes_written, 0)
              in
              (counts, shipment)))
    in
    let stream = t.streams.(drive) in
    t.streams.(drive) <- stream + 1;
    ({ Catalog.part = p; stream; drive; bytes; degraded }, demands)
  in
  let on_done (d : Catalog.part_done) =
    done_parts :=
      List.sort
        (fun (a : Catalog.part_done) b -> compare a.Catalog.part b.Catalog.part)
        (d :: !done_parts);
    merge_media ();
    save_checkpoint ()
  in
  let pool = Scheduler.One_of (List.map drive_slot drives) in
  let outcomes, stats =
    run_parts t ~phase:"backup" ~instant:"scheduler.part_done"
      ~fatal:(function
        | Repro_fault.Fault.Drive_dead _ | Repro_fault.Fault.Partitioned _ ->
          true
        | _ -> false)
      ~on_done ~drives
      (List.filter_map
         (fun p -> if is_done p then None else Some (p, pool, dump_part p))
         (List.init parts Fun.id))
  in
  if Obs.enabled () then
    List.iter
      (fun (slot, busy, _) ->
        let d = slot_drive slot in
        Obs.set_gauge (Printf.sprintf "scheduler.drive%d.busy_s" d) busy;
        Obs.set_gauge
          (Printf.sprintf "scheduler.drive%d.utilization" d)
          (if stats.Scheduler.p_elapsed > 0.0 then busy /. stats.Scheduler.p_elapsed
           else 0.0))
      stats.Scheduler.p_slots;
  Obs.annotate [ ("sim_elapsed_s", Obs.Float stats.Scheduler.p_elapsed) ];
  (match
     Array.to_list outcomes
     |> List.filter_map (function
          | Scheduler.Errored { error; _ } -> Some error
          | _ -> None)
   with
  | [] -> ()
  | error :: _ ->
    (* A hard fault: persist what completed (and the cartridges touched)
       so [backup ~resume:true] re-dumps only the unfinished parts. *)
    merge_media ();
    save_checkpoint ();
    raise error);
  let done_list = !done_parts in
  let streams = List.map (fun (d : Catalog.part_done) -> d.Catalog.stream) done_list in
  let part_drives =
    List.map (fun (d : Catalog.part_done) -> d.Catalog.drive) done_list
  in
  let part_hosts =
    List.map (fun (d : Catalog.part_done) -> drive_host t d.Catalog.drive) done_list
  in
  let bytes = List.fold_left (fun a (d : Catalog.part_done) -> a + d.Catalog.bytes) 0 done_list in
  let degraded =
    List.fold_left (fun a (d : Catalog.part_done) -> a + d.Catalog.degraded) 0 done_list
  in
  Catalog.clear_checkpoint t.cat ~strategy ~label;
  let snapshot_delete name =
    Obs.with_span "deleting snapshot"
      ~attrs:[ ("snapshot", Obs.Str name) ]
      (fun () -> Fs.snapshot_delete t.e_fs name)
  in
  (match strategy with
  | Strategy.Logical ->
    snapshot_delete ck.Catalog.ck_snapshot;
    (* Recorded only now, with every part sealed: a job that failed midway
       must not make the next incremental's base date lie. *)
    Dumpdates.record t.dd ~label ~level ~date
  | Strategy.Physical ->
    (* The old base has served its purpose; the new snapshot anchors the
       next incremental. *)
    if ck.Catalog.ck_base_snapshot <> "" then
      snapshot_delete ck.Catalog.ck_base_snapshot);
  Catalog.add t.cat
    {
      Catalog.id = 0;
      strategy;
      label;
      level;
      date;
      bytes;
      drive = ck.Catalog.ck_drive;
      stream = (match streams with s :: _ -> s | [] -> 0);
      streams;
      part_drives;
      part_hosts;
      media = !media_acc;
      snapshot =
        (match strategy with
        | Strategy.Logical -> ""
        | Strategy.Physical -> ck.Catalog.ck_snapshot);
      base_snapshot = ck.Catalog.ck_base_snapshot;
      degraded;
    }

let with_backup_span t ~strategy ~label ~resume k =
  t.stats <- None;
  Obs.with_span "engine.backup"
    ~attrs:
      [
        ("strategy", Obs.Str (Strategy.to_string strategy));
        ("label", Obs.Str label);
        ("resume", Obs.Bool resume);
      ]
    (fun () ->
      let entry = k () in
      (* Observability-only work: with no plane armed, skip even the
         block-map counts the gauges would be given. *)
      if Obs.enabled () then begin
        Obs.set_gauge "fs.used_blocks" (Float.of_int (Fs.used_blocks t.e_fs));
        Obs.set_gauge "fs.free_blocks" (Float.of_int (Fs.free_blocks t.e_fs))
      end;
      entry)

let backup_job t (job : Job.t) =
  let label = Job.label job in
  with_backup_span t ~strategy:job.Job.strategy ~label ~resume:job.Job.resume
    (fun () ->
      do_backup t ~strategy:job.Job.strategy ~level:job.Job.level
        ~subtree:job.Job.subtree ?exclude:job.Job.exclude
        ~drives:job.Job.drives ~label ~parts:job.Job.parts
        ~resume:job.Job.resume ())

(* Each part's (stream, drive) address. Entries predating multi-drive
   pools (or hand-built in tests) may carry no per-part drives; they fall
   back to the entry's single drive. *)
let part_locations (e : Catalog.entry) =
  let drives =
    if List.length e.Catalog.part_drives = List.length e.Catalog.streams then
      e.Catalog.part_drives
    else List.map (fun _ -> e.Catalog.drive) e.Catalog.streams
  in
  List.combine e.Catalog.streams drives

(* A part stream for reading. Local drives read in place; a remote
   drive's stream is shipped back whole over the session first (the
   three-way restore path), so the returned shipment already carries its
   transfer report. *)
let source_on t ~drive stream =
  let lib = lib_of t drive in
  match drive_host t drive with
  | "" -> (None, Tapeio.source ~skip_streams:stream lib)
  | host ->
    let sh, src =
      Mover.remote_source ~skip_streams:stream ~session:(session_for t host) lib
    in
    (Some sh, src)

(* Run [f] over each of the entry's part streams in part order, merging
   with [merge]. Sources are created one at a time: each creation rewinds
   its stacker. *)
let over_streams t (e : Catalog.entry) ~f ~merge ~zero =
  List.fold_left
    (fun acc (stream, drive) ->
      let _, src = source_on t ~drive stream in
      merge acc (f src))
    zero (part_locations e)

(* Replay one chain entry's part streams, each pinned to the drive that
   wrote it, [concurrency] capping in-flight parts (1 = the classic serial
   restore, in part order — parts are independent, so any completion
   order yields the same tree). [apply src] replays one stream onto the
   target; [work r] is its modeled seconds on the target [disk]. *)
let restore_entry t ~concurrency ~disk ~apply ~work (e : Catalog.entry) =
  let locs = part_locations e in
  let replay stream ~drive =
    Obs.with_span "restore part"
      ~attrs:[ ("stream", Obs.Int stream); ("drive", Obs.Int drive) ]
    @@ fun () ->
    part_demands t ~drive ~part:stream ~disk ~work (fun () ->
        let sh, src = source_on t ~drive stream in
        (apply src, sh))
  in
  let outcomes, _ =
    run_parts t ~phase:"restore" ~instant:"scheduler.restore_part_done"
      ~max_active:concurrency
      ~drives:(List.sort_uniq compare (List.map snd locs))
      (List.mapi
         (fun i (stream, drive) ->
           (i, Scheduler.Exactly (drive_slot drive), replay stream))
         locs)
  in
  Array.iter
    (function Scheduler.Errored { error; _ } -> raise error | _ -> ())
    outcomes;
  Array.to_list outcomes
  |> List.map (function
       | Scheduler.Completed g -> g.Scheduler.g_value
       | Scheduler.Errored _ | Scheduler.Unran ->
         raise (Fs.Error "restore part did not run"))

(* What both restores share: the span, the chain for [label] (an error
   when there is none), [k] over it — entries apply strictly in order, an
   incremental must not overtake its base — and the chain's summed
   makespan on the span. *)
let restore_chain t ~strategy ~label k =
  let name = Strategy.to_string strategy in
  Obs.with_span "engine.restore"
    ~attrs:[ ("strategy", Obs.Str name); ("label", Obs.Str label) ]
  @@ fun () ->
  t.stats <- None;
  match Catalog.restore_chain t.cat ~label ~strategy with
  | [] -> raise (Fs.Error (Printf.sprintf "no %s backups of %S" name label))
  | chain ->
    let out = k chain in
    Option.iter
      (fun s -> Obs.annotate [ ("sim_elapsed_s", Obs.Float s.Scheduler.p_elapsed) ])
      t.stats;
    out

let sum_apply =
  List.fold_left
    (fun (acc : Restore.apply_result) (r : Restore.apply_result) ->
      {
        Restore.files_restored = acc.files_restored + r.files_restored;
        dirs_created = acc.dirs_created + r.dirs_created;
        files_deleted = acc.files_deleted + r.files_deleted;
        renames = acc.renames + r.renames;
        bytes_restored = acc.bytes_restored + r.bytes_restored;
        corrupt_headers_skipped = acc.corrupt_headers_skipped + r.corrupt_headers_skipped;
      })
    {
      Restore.files_restored = 0;
      dirs_created = 0;
      files_deleted = 0;
      renames = 0;
      bytes_restored = 0;
      corrupt_headers_skipped = 0;
    }

let restore_logical t ~label ~fs ~target ?select ?(concurrency = 1) () =
  restore_chain t ~strategy:Strategy.Logical ~label @@ fun chain ->
  let session = Restore.session ~fs ~target () in
  let apply = Restore.apply ?select session in
  let work (r : Restore.apply_result) =
    (Float.of_int r.Restore.bytes_restored /. io_model.logical_write_bytes_s)
    +. (Float.of_int r.Restore.files_restored *. io_model.restore_create_latency_s)
  in
  let disk = Volume.resource (Fs.volume fs) in
  (* Selective extraction reads only the newest full dump. *)
  let chain = if select = None then chain else [ List.hd chain ] in
  List.map
    (fun e -> sum_apply (restore_entry t ~concurrency ~disk ~apply ~work e))
    chain

let restore_physical t ~label ~volume ?(concurrency = 1) () =
  restore_chain t ~strategy:Strategy.Physical ~label @@ fun chain ->
  let apply = Image_restore.apply ~volume in
  let work (r : Image_restore.result) =
    Float.of_int r.Image_restore.bytes_read /. io_model.image_write_bytes_s
  in
  let disk = Volume.resource volume in
  List.map
    (fun e ->
      match restore_entry t ~concurrency ~disk ~apply ~work e with
      | [] -> assert false
      | first :: _ as rs ->
        {
          first with
          Image_restore.blocks_restored =
            List.fold_left (fun a r -> a + r.Image_restore.blocks_restored) 0 rs;
          bytes_read = List.fold_left (fun a r -> a + r.Image_restore.bytes_read) 0 rs;
        })
    chain

let table_of_contents t (e : Catalog.entry) =
  (* Every part carries all directories; dedupe by inode across parts. *)
  let seen = Hashtbl.create 256 in
  over_streams t e
    ~f:(fun src ->
      List.filter
        (fun (te : Restore.toc_entry) ->
          if Hashtbl.mem seen te.Restore.ino then false
          else begin
            Hashtbl.add seen te.Restore.ino ();
            true
          end)
        (Restore.table_of_contents src))
    ~merge:(fun a b -> a @ b)
    ~zero:[]

let merge_verdicts a b =
  match (a, b) with
  | Ok (), Ok () -> Ok ()
  | (Error _ as e), Ok () | Ok (), (Error _ as e) -> e
  | Error p, Error q -> Error (p @ q)

let verify_logical t ~label ~fs ~target =
  match Catalog.restore_chain t.cat ~label ~strategy:Strategy.Logical with
  | [] -> Error [ Printf.sprintf "no logical backups of %S" label ]
  | full :: _ ->
    over_streams t full
      ~f:(fun src -> Restore.compare ~fs ~target src)
      ~merge:merge_verdicts ~zero:(Ok ())

let save w t =
  let open Repro_util.Serde in
  write_fixed w "RENG4";
  write_list U16 (fun w (_, l) -> Link.save w l) w t.links;
  write_array U16
    (fun w a ->
      write_string w a.att_host;
      Library.save w a.att_lib)
    w t.atts;
  Array.iter (write_u32 w) t.streams;
  write_string w (Dumpdates.encode t.dd);
  write_string w (Catalog.encode t.cat);
  write_u32 w t.snap_seq

(* RENG2 and RENG3 predate the network: no links, every stacker cabled
   to the backup host. The catalog layout follows the generation. *)
let load ?clock r ~fs =
  let open Repro_util.Serde in
  let version =
    match read_fixed r 5 with
    | "RENG2" -> 2
    | "RENG3" -> 3
    | "RENG4" -> 4
    | m -> raise (Corrupt (Printf.sprintf "unknown engine store generation %S" m))
  in
  let links =
    if version < 4 then []
    else
      read_list U16
        (fun r ->
          let l = Link.load r in
          (Link.label l, l))
        r
  in
  let atts =
    read_array U16
      (fun r ->
        let att_host = if version < 4 then "" else read_string r in
        { att_host; att_lib = Library.load r })
      r
  in
  let streams = Array.map (fun _ -> read_u32 r) atts in
  let dd = Dumpdates.decode (read_string r) in
  let cat = Catalog.decode ~version (read_string r) in
  let snap_seq = read_u32 r in
  { e_fs = fs; atts; links; sessions = []; dd; cat; clock; streams; snap_seq;
    stats = None }

let verify_physical t ~label =
  match Catalog.restore_chain t.cat ~label ~strategy:Strategy.Physical with
  | [] -> Error [ Printf.sprintf "no physical backups of %S" label ]
  | chain ->
    List.fold_left
      (fun acc e ->
        over_streams t e
          ~f:(fun src -> Image_restore.verify src)
          ~merge:(fun a b ->
            match (a, b) with
            | Ok n, Ok m -> Ok (n + m)
            | Ok _, Error p | Error p, Ok _ -> Error p
            | Error p, Error q -> Error (p @ q))
          ~zero:acc)
      (Ok 0) chain

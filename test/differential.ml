(* Differential test harness: run a full backup scenario and capture
   every byte stream the simulation produces — the chrome trace, the
   metrics registry, the serialized tape libraries (cartridge records
   and filemarks), the engine store (catalog + links), and optionally a
   restored destination volume image. Two captures can then be compared
   byte for byte.

   This is the plane that makes hot-path refactors safe: whole
   scenarios must reproduce, byte for byte, the stream digests recorded
   on the pre-optimization reference paths and the pre-optimization
   goldens checked in under test/fixtures/, while oracle.ml pins each
   optimized algorithm against its original transcription. The module
   is linked into every test executable (it is not itself a test), so
   test_prof, test_scheduler, test_net, and test_differential all share
   one engine-fixture and byte-capture vocabulary instead of private
   copies. *)

module Clock = Repro_sim.Clock
module Volume = Repro_block.Volume
module Persist = Repro_block.Persist
module Library = Repro_tape.Library
module Fs = Repro_wafl.Fs
module Strategy = Repro_backup.Strategy
module Catalog = Repro_backup.Catalog
module Engine = Repro_backup.Engine
module Generator = Repro_workload.Generator
module Compare = Repro_workload.Compare
module Obs = Repro_obs.Obs
module Prof = Repro_prof.Prof
module Serde = Repro_util.Serde
module Crc32 = Repro_util.Crc32
module Link = Repro_net.Link

(* --------------------------- engine fixtures ------------------------- *)

(* The shared seeded fixture: a populated source filesystem and an
   engine over [libraries] local stackers labeled "S0", "S1", ... *)
let make_engine ?clock ?(blocks = 16384) ?(bytes = 400_000) ?(libraries = 1)
    ?profile ~seed () =
  let vol =
    Volume.create ~label:"src" (Volume.small_geometry ~data_blocks:blocks)
  in
  let fs = Fs.mkfs vol in
  let profile =
    match profile with
    | Some p -> { p with Generator.seed }
    | None -> { Generator.default with Generator.seed }
  in
  ignore (Generator.populate ~profile ~fs ~root:"/data" ~total_bytes:bytes ());
  let libs =
    List.init libraries (fun i ->
        Library.create ~slots:16 ~label:(Printf.sprintf "S%d" i) ())
  in
  (Engine.create ?clock ~fs ~libraries:libs (), fs, libs)

let drive_pool k = List.init k Fun.id

let backup eng ~strategy ~parts ~drives =
  let job =
    match strategy with
    | Strategy.Logical ->
      Engine.Job.make ~strategy ~subtree:"/data" ~parts ~drives ()
    | Strategy.Physical ->
      Engine.Job.make ~strategy ~label:"vol" ~parts ~drives ()
  in
  Engine.backup_job eng job

(* Restore into a fresh destination volume; returns it so callers can
   serialize or mount it. *)
let restore_volume eng ~strategy =
  match strategy with
  | Strategy.Logical ->
    let dvol =
      Volume.create ~label:"dst" (Volume.small_geometry ~data_blocks:16384)
    in
    let dfs = Fs.mkfs dvol in
    ignore (Engine.restore_logical eng ~label:"/data" ~fs:dfs ~target:"/restored" ());
    dvol
  | Strategy.Physical ->
    let nvol =
      Volume.create ~label:"new" (Volume.small_geometry ~data_blocks:16384)
    in
    ignore (Engine.restore_physical eng ~label:"vol" ~volume:nvol ());
    nvol

(* Restore into a fresh destination and tree-compare against [src_fs]
   (the scheduler/net suites' check: concurrency and transport change
   timing, never content). *)
let restore_tree_matches eng ~strategy ~concurrency ~src_fs =
  match strategy with
  | Strategy.Logical ->
    let dvol =
      Volume.create ~label:"dst" (Volume.small_geometry ~data_blocks:16384)
    in
    let dfs = Fs.mkfs dvol in
    ignore
      (Engine.restore_logical eng ~label:"/data" ~fs:dfs ~target:"/r"
         ~concurrency ());
    Compare.trees ~src:(src_fs, "/data") ~dst:(dfs, "/r") ()
  | Strategy.Physical ->
    let nvol =
      Volume.create ~label:"new" (Volume.small_geometry ~data_blocks:16384)
    in
    ignore (Engine.restore_physical eng ~label:"vol" ~volume:nvol ~concurrency ());
    let nfs = Fs.mount nvol in
    Compare.trees ~src:(src_fs, "/data") ~dst:(nfs, "/data") ()

(* ------------------------------ artifacts ---------------------------- *)

type artifacts = {
  a_trace : string;  (** chrome trace export *)
  a_metrics : string;  (** metrics JSONL export *)
  a_tapes : string;  (** every library serialized, local then remote *)
  a_catalog : string;  (** the engine store: catalog + links (RENG4) *)
  a_volume : string;  (** restored volume image; [""] unless [~restore] *)
}

let streams =
  [
    ("trace", fun a -> a.a_trace);
    ("metrics", fun a -> a.a_metrics);
    ("tapes", fun a -> a.a_tapes);
    ("catalog", fun a -> a.a_catalog);
    ("volume", fun a -> a.a_volume);
  ]

(* One fixture line per stream: "<case> <stream> <length> <crc32>". *)
let digest_lines case a =
  List.map
    (fun (name, get) ->
      let s = get a in
      Printf.sprintf "%s %s %d %08x" case name (String.length s) (Crc32.string s))
    streams

let first_diff a b =
  let n = Stdlib.min (String.length a) (String.length b) in
  let rec go i = if i < n && a.[i] = b.[i] then go (i + 1) else i in
  go 0

let agree x y = List.for_all (fun (_, get) -> String.equal (get x) (get y)) streams

let check_identical what x y =
  List.iter
    (fun (name, get) ->
      let a = get x and b = get y in
      if not (String.equal a b) then
        Alcotest.failf "%s: %s diverged (first diff at byte %d; lengths %d vs %d)"
          what name (first_diff a b) (String.length a) (String.length b))
    streams

(* The fat link the speed bench uses: wire framing is exercised on every
   chunk without the transfer dominating test wall-clock. *)
let fat_link () =
  Link.params ~bandwidth_bytes_s:1e9 ~latency_s:1e-5
    ~window_bytes:(16 * 1024 * 1024) ()

(* A deliberately tiny workload for golden fixtures: a couple dozen
   small files, so the checked-in tape image stays small. *)
let tiny_profile =
  {
    Generator.default with
    Generator.median_file_bytes = 2048.0;
    sigma = 1.2;
    files_per_dir = 3;
    dirs_per_dir = 2;
    max_depth = 2;
  }

(* One seeded backup scenario, every byte stream captured.

   [profiled] arms a host profile around the run (and asserts it
   observed something), for the zero-feedback property. [remote] ships
   the backup to a remote vault over a fat link, so the frame/session
   paths are in the loop. [restore] additionally restores into a fresh
   volume and captures its image. *)
let run ?(profiled = false) ?(remote = false) ?(restore = false) ?(parts = 2)
    ?drives ?(blocks = 16384) ?(bytes = 200_000) ?profile ~seed ~strategy () =
  let clock = Clock.create () in
  let eng, _fs, libs = make_engine ~clock ~blocks ~bytes ?profile ~seed () in
  let vault_libs =
    if remote then
      [
        Library.create ~slots:16 ~label:"V0" ();
        Library.create ~slots:16 ~label:"V1" ();
      ]
    else []
  in
  let remote_drives =
    if remote then
      Engine.attach_remote eng ~host:"vault" ~link_params:(fat_link ())
        ~libraries:vault_libs ()
    else []
  in
  let drives =
    match drives with
    | Some d -> d
    | None -> if remote then remote_drives else [ 0 ]
  in
  let obs = Obs.create ~clock () in
  let restored = ref None in
  let body () =
    Obs.with_armed obs (fun () ->
        ignore (backup eng ~strategy ~parts ~drives);
        if restore then restored := Some (restore_volume eng ~strategy))
  in
  if profiled then begin
    let p = Prof.create () in
    Prof.with_armed p body;
    (* the profile must actually have observed the run, or a property
       built on this harness tests nothing *)
    if (Prof.summary p).Prof.s_rows = [] then
      Alcotest.fail "profiled run recorded no probes"
  end
  else body ();
  let tapes =
    let w = Serde.writer () in
    List.iter (fun lib -> Library.save w lib) (libs @ vault_libs);
    Serde.contents w
  in
  let catalog =
    let w = Serde.writer () in
    Engine.save w eng;
    Serde.contents w
  in
  let volume =
    match !restored with
    | None -> ""
    | Some vol ->
      let w = Serde.writer () in
      Persist.write w vol;
      Serde.contents w
  in
  {
    a_trace = Obs.chrome_trace obs;
    a_metrics = Obs.metrics_jsonl obs;
    a_tapes = tapes;
    a_catalog = catalog;
    a_volume = volume;
  }

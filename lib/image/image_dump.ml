module Bitmap = Repro_util.Bitmap
module Cost = Repro_sim.Cost
module Volume = Repro_block.Volume
module Fs = Repro_wafl.Fs
module Fsinfo = Repro_wafl.Fsinfo
module Layout = Repro_wafl.Layout
module Blockmap = Repro_wafl.Blockmap
module Tapeio = Repro_tape.Tapeio

type result = {
  kind : Format.kind;
  blocks_dumped : int;
  bytes_written : int;
  snapshots_included : string list;
  snapshots_dropped : string list;
}

(* CPU per 4 KB block: record bookkeeping plus checksum and framing. *)
let block_cost = Cost.f630.image_per_block +. (4096.0 *. Cost.f630.image_per_byte)

(* Self-profiling: per-extent read+encode on the physical block path. *)
let p_extent = Repro_prof.Prof.probe "image.extent"
let c_extents = Repro_prof.Prof.counter "image.extents"

let find_entry fs name =
  match
    List.find_opt
      (fun (s : Fsinfo.snap_entry) -> String.equal s.snap_name name)
      (Fs.snapshot_entries fs)
  with
  | Some e -> e
  | None -> raise (Fs.Error (Printf.sprintf "no snapshot %S" name))

(* Stream the blocks of [set] (excluding the fixed fsinfo locations, which
   the trailer replaces) as maximal extents in ascending block order. *)
let emit_extents ?cpu ~fs ~sink set =
  let vol = Fs.volume fs in
  let nblocks = ref 0 in
  let flush vbn count =
    if count > 0 then begin
      let tok = Repro_prof.Prof.enter p_extent in
      let extent = Volume.read_extent vol vbn count in
      Cost.charge cpu (Float.of_int count *. block_cost);
      Format.write_extent (Tapeio.output sink) ~vbn extent;
      nblocks := !nblocks + count;
      Repro_prof.Prof.leave tok;
      Repro_prof.Prof.bump c_extents
    end
  in
  let run_start = ref (-1) in
  let run_len = ref 0 in
  Bitmap.iter_set
    (fun vbn ->
      if vbn <> Layout.fsinfo_vbn_primary && vbn <> Layout.fsinfo_vbn_backup then
        if !run_len > 0 && vbn = !run_start + !run_len && !run_len < Format.max_extent_blocks
        then incr run_len
        else begin
          flush !run_start !run_len;
          run_start := vbn;
          run_len := 1
        end)
    set;
  flush !run_start !run_len;
  !nblocks

let synthesize_fsinfo fs (target : Fsinfo.snap_entry) included =
  Fsinfo.encode
    {
      Fsinfo.generation = Fs.generation fs;
      cp_time = target.created;
      volume_blocks = Fs.size_blocks fs;
      max_inodes = Fs.max_inodes fs;
      next_snap_id = target.snap_id + 1;
      next_qtree = 1024; (* conservative: above anything assigned so far *)
      qtree_limits = Fs.qtree_limit_list fs;
      root = target.snap_root;
      snaps = included;
    }

let run ?cpu ?(part = (0, 1)) ?(observe = Repro_obs.Obs.observe) ~fs ~kind ~base
    ~snapshot ~sink () =
  let part_idx, nparts = part in
  if nparts < 1 || part_idx < 0 || part_idx >= nparts then
    invalid_arg "Image_dump.run: bad part";
  Fs.cp fs;
  let bmap = Fs.blockmap fs in
  let target = find_entry fs snapshot in
  let all = Fs.snapshot_entries fs in
  let date = Fs.now fs in
  let set, included, dropped, base_name =
    match kind with
    | Format.Full ->
      let included =
        List.filter (fun (s : Fsinfo.snap_entry) -> s.snap_id <= target.snap_id) all
      in
      let set = Bitmap.create (Fs.size_blocks fs) in
      List.iter
        (fun (s : Fsinfo.snap_entry) ->
          Bitmap.union_into ~dst:set (Blockmap.plane_copy bmap s.plane))
        included;
      (set, included, [], "")
    | Format.Incremental ->
      let base_entry = find_entry fs (Option.get base) in
      if base_entry.snap_id >= target.snap_id then
        raise (Fs.Error "incremental base must be older than its snapshot");
      let set = Blockmap.incremental_blocks bmap ~base:base_entry.plane ~target:target.plane in
      let covered =
        Bitmap.union
          (Blockmap.plane_copy bmap base_entry.plane)
          (Blockmap.plane_copy bmap target.plane)
      in
      let included, dropped =
        List.partition
          (fun (s : Fsinfo.snap_entry) ->
            s.snap_id <= base_entry.snap_id
            || s.snap_id = target.snap_id
            || (s.snap_id < target.snap_id
               && Bitmap.subset (Blockmap.plane_copy bmap s.plane) covered))
          all
      in
      let included =
        List.filter (fun (s : Fsinfo.snap_entry) -> s.snap_id <= target.snap_id) included
      in
      (set, included, dropped, base_entry.snap_name)
  in
  (* Partitioned dump: part [i] of [n] carries the selected blocks inside
     the contiguous vbn range [i*nb/n, (i+1)*nb/n). Each part is a
     complete stream — header, extents, trailer — so parts restore
     independently and in any order; the trailer fsinfo is identical
     across parts and idempotent under Image_restore.apply. *)
  let set =
    if nparts = 1 then set
    else begin
      let nb = Fs.size_blocks fs in
      let lo = part_idx * nb / nparts and hi = (part_idx + 1) * nb / nparts in
      let ps = Bitmap.create nb in
      Bitmap.iter_set (fun vbn -> if vbn >= lo && vbn < hi then Bitmap.set ps vbn) set;
      ps
    end
  in
  let block_count =
    Bitmap.count set
    - (if Bitmap.get set Layout.fsinfo_vbn_primary then 1 else 0)
    - if Bitmap.get set Layout.fsinfo_vbn_backup then 1 else 0
  in
  let start_bytes = Tapeio.sink_bytes_written sink in
  Tapeio.output sink
    (Format.encode_header
       {
         Format.kind;
         snap_name = snapshot;
         base_name;
         volume_blocks = Fs.size_blocks fs;
         block_count;
         dump_date = date;
         generation = Fs.generation fs;
       });
  let blocks = ref 0 in
  observe "dumping blocks" (fun () ->
      blocks := emit_extents ?cpu ~fs ~sink set;
      Tapeio.output sink
        (Format.encode_trailer
           ~fsinfo:(synthesize_fsinfo fs target included)));
  Tapeio.close_sink sink;
  Repro_obs.Obs.count "image_dump.blocks" !blocks;
  Repro_obs.Obs.count "image_dump.bytes_written"
    (Tapeio.sink_bytes_written sink - start_bytes);
  {
    kind;
    blocks_dumped = !blocks;
    bytes_written = Tapeio.sink_bytes_written sink - start_bytes;
    snapshots_included = List.map (fun (s : Fsinfo.snap_entry) -> s.snap_name) included;
    snapshots_dropped = List.map (fun (s : Fsinfo.snap_entry) -> s.snap_name) dropped;
  }

let raw ?cpu ?(observe = Repro_obs.Obs.observe) ~volume ~sink () =
  let nblocks = Volume.size_blocks volume in
  let date = 0.0 in
  let start_bytes = Tapeio.sink_bytes_written sink in
  Tapeio.output sink
    (Format.encode_header
       {
         Format.kind = Format.Full;
         snap_name = "";
         base_name = "";
         volume_blocks = nblocks;
         block_count = nblocks - 2;
         dump_date = date;
         generation = 0;
       });
  let blocks = ref 0 in
  observe "dumping blocks" (fun () ->
      (* every block except the fsinfo pair, which travels in the trailer *)
      let vbn = ref 2 in
      while !vbn < nblocks do
        let count = Stdlib.min Format.max_extent_blocks (nblocks - !vbn) in
        let extent = Volume.read_extent volume !vbn count in
        Cost.charge cpu (Float.of_int count *. block_cost);
        Format.write_extent (Tapeio.output sink) ~vbn:!vbn extent;
        blocks := !blocks + count;
        vbn := !vbn + count
      done;
      let fsinfo = Volume.read volume Layout.fsinfo_vbn_primary in
      Tapeio.output sink (Format.encode_trailer ~fsinfo));
  Tapeio.close_sink sink;
  {
    kind = Format.Full;
    blocks_dumped = !blocks;
    bytes_written = Tapeio.sink_bytes_written sink - start_bytes;
    snapshots_included = [];
    snapshots_dropped = [];
  }

let full ?cpu ?part ?observe ~fs ~snapshot ~sink () =
  run ?cpu ?part ?observe ~fs ~kind:Format.Full ~base:None ~snapshot ~sink ()

let incremental ?cpu ?part ?observe ~fs ~base ~snapshot ~sink () =
  run ?cpu ?part ?observe ~fs ~kind:Format.Incremental ~base:(Some base) ~snapshot
    ~sink ()

module Bitmap = Repro_util.Bitmap
module Serde = Repro_util.Serde
module Cost = Repro_sim.Cost
module Fs = Repro_wafl.Fs
module Inode = Repro_wafl.Inode
module Tapeio = Repro_tape.Tapeio
module Obs = Repro_obs.Obs

type result = {
  level : int;
  dump_date : float;
  base_date : float;
  bytes_written : int;
  files_dumped : int;
  dirs_dumped : int;
  inodes_mapped : int;
  files_skipped : int;
      (** unreadable files skipped (degraded mode); their headers are on
          tape with no data, so restore yields an empty file *)
}

(* Self-profiling: per-file header encoding on the logical block path. *)
let p_file = Repro_prof.Prof.probe "dump.file_header"
let c_files = Repro_prof.Prof.counter "dump.file_headers"

(* Serialize a bitmap and write it as whole 4 KB data blocks after a Map
   header. *)
let emit_map sink ~map_kind ~inodes bitmap =
  let w = Serde.writer () in
  Bitmap.write w bitmap;
  let payload = Serde.contents w in
  let nblocks = (String.length payload + Spec.data_block_size - 1) / Spec.data_block_size in
  Tapeio.output sink (Spec.encode (Spec.Map { map_kind; inodes; map_blocks = nblocks }));
  for i = 0 to nblocks - 1 do
    let off = i * Spec.data_block_size in
    let len = Stdlib.min Spec.data_block_size (String.length payload - off) in
    let block = Bytes.make Spec.data_block_size '\000' in
    Bytes.blit_string payload off block 0 len;
    Tapeio.output sink (Bytes.unsafe_to_string block)
  done

(* Raw hole-map bytes: bit lbn set iff the block is present. *)
let presence_bytes present nblocks =
  let b = Bytes.make ((nblocks + 7) / 8) '\000' in
  for lbn = 0 to nblocks - 1 do
    if present lbn then begin
      let byte = lbn lsr 3 in
      Bytes.set b byte (Char.chr (Char.code (Bytes.get b byte) lor (1 lsl (lbn land 7))))
    end
  done;
  Bytes.to_string b

(* Emit the File header (plus Addr continuations if the hole map is large),
   then return the list of present lbns in order. *)
let emit_file_header sink ~ino ~inode ~xattrs ~nblocks ~present =
  let tok = Repro_prof.Prof.enter p_file in
  let pbytes = presence_bytes present nblocks in
  let total = String.length pbytes in
  let cap = Spec.file_header_capacity ~xattrs in
  let prefix_len = Stdlib.min cap total in
  Tapeio.output sink
    (Spec.encode
       (Spec.File
          {
            ino;
            inode;
            xattrs;
            nblocks;
            present_prefix = String.sub pbytes 0 prefix_len;
            present_total = total;
          }));
  let pos = ref prefix_len in
  while !pos < total do
    let len = Stdlib.min Spec.addr_capacity (total - !pos) in
    Tapeio.output sink
      (Spec.encode (Spec.Addr { ino; fragment = String.sub pbytes !pos len }));
    pos := !pos + len
  done;
  Repro_prof.Prof.leave tok;
  Repro_prof.Prof.bump c_files

(* Canonical directory content: "a simple, known format of the file name
   followed by the inode number" (paper §3). *)
let canonical_dir_content entries =
  let w = Serde.writer () in
  Serde.write_list Serde.U32
    (fun w (name, ino) ->
      Serde.write_u32 w ino;
      Serde.write_u8 w (String.length name);
      Serde.write_fixed w name)
    w entries;
  Serde.contents w

let run ?(level = 0) ?dumpdates ?(record = true) ?(exclude = Filter.none) ?cpu
    ?(part = (0, 1)) ?(observe = Obs.observe) ~view ~subtree ~label ~date ~sink () =
  if level < 0 || level > 9 then invalid_arg "Dump.run: level must be 0-9";
  let part_idx, nparts = part in
  if nparts < 1 || part_idx < 0 || part_idx >= nparts then
    invalid_arg "Dump.run: bad part";
  let base_date =
    if level = 0 then 0.0
    else
      match dumpdates with
      | Some dd -> Dumpdates.base_date dd ~label ~level
      | None -> 0.0
  in
  let root_ino =
    match Fs.View.lookup view subtree with
    | Some ino when (Fs.View.getattr view ino).Inode.kind = Inode.Directory -> ino
    | Some _ -> raise (Fs.Error (subtree ^ ": not a directory"))
    | None -> raise (Fs.Error (subtree ^ ": no such directory"))
  in
  let max_inodes = Fs.View.max_inodes view in
  let usage = Bitmap.create max_inodes in
  let dumped = Bitmap.create max_inodes in
  let dirs : (int, (string * int) list) Hashtbl.t = Hashtbl.create 256 in
  let inodes_mapped = ref 0 in

  (* Phases I and II: one recursive walk. Returns true iff the directory
     contains (transitively) anything being dumped, in which case the
     directory itself must be dumped so restore can map names. *)
  let changed (attr : Inode.t) =
    level = 0 || attr.mtime > base_date || attr.ctime > base_date
  in
  let rec map_dir ino rel =
    Bitmap.set usage ino;
    incr inodes_mapped;
    Cost.charge cpu Cost.f630.dump_map_per_inode;
    let attr = Fs.View.getattr view ino in
    let entries = Fs.View.readdir view ino in
    let kept =
      List.filter
        (fun (name, _) ->
          let child_rel = if rel = "" then name else rel ^ "/" ^ name in
          not (Filter.excluded exclude child_rel))
        entries
    in
    Cost.charge cpu (Float.of_int (List.length entries) *. Cost.f630.dump_per_dirent);
    Hashtbl.replace dirs ino kept;
    let any_child_dumped =
      List.fold_left
        (fun any (name, child) ->
          let child_rel = if rel = "" then name else rel ^ "/" ^ name in
          let cattr = Fs.View.getattr view child in
          match cattr.Inode.kind with
          | Inode.Directory -> map_dir child child_rel || any
          | Inode.Regular | Inode.Symlink ->
            Bitmap.set usage child;
            incr inodes_mapped;
            Cost.charge cpu Cost.f630.dump_map_per_inode;
            if changed cattr then begin
              Bitmap.set dumped child;
              true
            end
            else any
          | Inode.Free -> any)
        false kept
    in
    if changed attr || any_child_dumped || ino = root_ino then begin
      Bitmap.set dumped ino;
      true
    end
    else false
  in
  observe "mapping" (fun () -> ignore (map_dir root_ino ""));

  (* Partitioned dump: part [i] of [n] carries the files whose inode
     number is congruent to [i] mod [n] — but every part carries the full
     usage map and all dumped directories, so each part's stream is
     self-describing and restore's reconciliation never mistakes another
     part's files for deletions. *)
  let part_dumped =
    if nparts = 1 then dumped
    else begin
      let pd = Bitmap.create max_inodes in
      Bitmap.iter_set
        (fun ino ->
          if Hashtbl.mem dirs ino || ino mod nparts = part_idx then Bitmap.set pd ino)
        dumped;
      pd
    end
  in

  let start_bytes = Tapeio.sink_bytes_written sink in
  Tapeio.output sink
    (Spec.encode
       (Spec.Tape { level; dump_date = date; base_date; label; root_ino; max_inodes }));
  emit_map sink ~map_kind:`Usage ~inodes:max_inodes usage;
  emit_map sink ~map_kind:`Dumped ~inodes:max_inodes part_dumped;

  (* Phase III: directories, ascending inode order, canonical content. *)
  let dirs_dumped = ref 0 in
  observe "dumping directories" (fun () ->
      let dir_inos =
        Hashtbl.fold
          (fun ino _ acc -> if Bitmap.get part_dumped ino then ino :: acc else acc)
          dirs []
        |> List.sort compare
      in
      List.iter
        (fun ino ->
          let attr = Fs.View.getattr view ino in
          let entries = Hashtbl.find dirs ino in
          let content = canonical_dir_content entries in
          let len = String.length content in
          let nblocks = (len + Spec.data_block_size - 1) / Spec.data_block_size in
          Cost.charge cpu Cost.f630.dump_per_file;
          Cost.charge cpu (Float.of_int len *. Cost.f630.dump_format_per_byte);
          emit_file_header sink ~ino
            ~inode:{ attr with size = len }
            ~xattrs:(Fs.View.xattrs view ino) ~nblocks
            ~present:(fun _ -> true);
          for i = 0 to nblocks - 1 do
            let off = i * Spec.data_block_size in
            let blen = Stdlib.min Spec.data_block_size (len - off) in
            let block = Bytes.make Spec.data_block_size '\000' in
            Bytes.blit_string content off block 0 blen;
            Tapeio.output sink (Bytes.unsafe_to_string block)
          done;
          incr dirs_dumped)
        dir_inos);

  (* Phase IV: files, ascending inode order. *)
  let files_dumped = ref 0 in
  let files_skipped = ref 0 in
  observe "dumping files" (fun () ->
      Bitmap.iter_set
        (fun ino ->
          let attr = Fs.View.getattr view ino in
          if attr.Inode.kind = Inode.Regular || attr.Inode.kind = Inode.Symlink then begin
            let nblocks = Inode.nblocks attr in
            Cost.charge cpu Cost.f630.dump_per_file;
            (* Pull every present block off the snapshot BEFORE emitting
               the header: an unreadable block must not leave a
               half-written file record on tape. *)
            match
              let acc = ref [] in
              for lbn = nblocks - 1 downto 0 do
                match Fs.View.file_block view ino lbn with
                | Some block -> acc := block :: !acc
                | None -> ()
              done;
              !acc
            with
            | blocks ->
              emit_file_header sink ~ino ~inode:attr
                ~xattrs:(Fs.View.xattrs view ino) ~nblocks
                ~present:(fun lbn -> Fs.View.block_present view ino lbn);
              List.iter
                (fun block ->
                  Cost.charge cpu
                    (Float.of_int Spec.data_block_size *. Cost.f630.dump_format_per_byte);
                  Tapeio.output sink block)
                blocks;
              incr files_dumped
            | exception Repro_fault.Fault.Media_error { device; _ } ->
              (* Degraded mode: one unreadable file must not kill a
                 multi-hour dump. Emit its header with no data — restore
                 produces an empty file — and report it. *)
              Repro_fault.Fault.note_skip ~device ~addr:ino
                ~what:"unreadable file skipped by logical dump";
              incr files_skipped;
              emit_file_header sink ~ino
                ~inode:{ attr with size = 0 }
                ~xattrs:(Fs.View.xattrs view ino) ~nblocks:0
                ~present:(fun _ -> false)
          end)
        part_dumped);

  Tapeio.output sink (Spec.encode Spec.End);
  Tapeio.close_sink sink;
  (match dumpdates with
  | Some dd when record && part_idx = nparts - 1 ->
    Dumpdates.record dd ~label ~level ~date
  | Some _ | None -> ());
  Obs.count "dump.files" !files_dumped;
  Obs.count "dump.dirs" !dirs_dumped;
  Obs.count "dump.inodes_mapped" !inodes_mapped;
  Obs.count "dump.files_skipped" !files_skipped;
  Obs.count "dump.bytes_written" (Tapeio.sink_bytes_written sink - start_bytes);
  {
    level;
    dump_date = date;
    base_date;
    bytes_written = Tapeio.sink_bytes_written sink - start_bytes;
    files_dumped = !files_dumped;
    dirs_dumped = !dirs_dumped;
    inodes_mapped = !inodes_mapped;
    files_skipped = !files_skipped;
  }

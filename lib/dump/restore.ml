module Bitmap = Repro_util.Bitmap
module Serde = Repro_util.Serde
module Resource = Repro_sim.Resource
module Cost = Repro_sim.Cost
module Fs = Repro_wafl.Fs
module Inode = Repro_wafl.Inode
module Tapeio = Repro_tape.Tapeio

exception Error of string

let err fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

type session = {
  rfs : Fs.t;
  target : string;
  cpu : Resource.t option;
  (* The persistent picture of the restored tree: dump ino -> directory
     entries, for every directory restored so far. Non-membership = file. *)
  tree : (int, (string * int) list) Hashtbl.t;
  mutable root_ino : int;
  mutable prior_usage : Bitmap.t option;
  mutable applied : int;
}

let session ?cpu ~fs ~target () =
  {
    rfs = fs;
    target;
    cpu;
    tree = Hashtbl.create 256;
    root_ino = -1;
    prior_usage = None;
    applied = 0;
  }

let save_session s =
  let open Serde in
  let w = writer () in
  write_fixed w "RSYM1";
  write_string w s.target;
  write_u32 w (s.root_ino land 0xffffffff);
  write_u32 w s.applied;
  write_count U32 w (Hashtbl.length s.tree);
  Hashtbl.iter
    (fun ino entries ->
      write_u32 w ino;
      write_list U32
        (fun w (name, child) ->
          write_string w name;
          write_u32 w child)
        w entries)
    s.tree;
  write_option Bitmap.write w s.prior_usage;
  contents w

let load_session ?cpu ~fs blob =
  let open Serde in
  let r = reader blob in
  expect_magic r "RSYM1";
  let target = read_string r in
  let root_ino_raw = read_u32 r in
  let applied = read_u32 r in
  let ndirs = read_count U32 r in
  let tree = Hashtbl.create (Stdlib.max 16 ndirs) in
  for _ = 1 to ndirs do
    let ino = read_u32 r in
    let entries =
      read_list U32
        (fun r ->
          let name = read_string r in
          (name, read_u32 r))
        r
    in
    Hashtbl.replace tree ino entries
  done;
  let prior_usage = read_option Bitmap.read r in
  {
    rfs = fs;
    target;
    cpu;
    tree;
    root_ino = (if root_ino_raw = 0xffffffff then -1 else root_ino_raw);
    prior_usage;
    applied;
  }

type apply_result = {
  files_restored : int;
  dirs_created : int;
  files_deleted : int;
  renames : int;
  bytes_restored : int;
  corrupt_headers_skipped : int;
}

type toc_entry = { rel_path : string; ino : int; is_dir : bool }

(* ------------------------------------------------------------------ *)
(* Stream reading                                                      *)

(* Read the next valid header, scanning past damage. The stream is
   1024-aligned throughout (headers are 1024 B, data blocks 4096 B), so
   resynchronization is a matter of reading forward in header-size chunks
   until one passes its CRC. *)
let read_header src ~skipped =
  let rec loop () =
    let chunk = Tapeio.input src Spec.header_size in
    match Spec.decode chunk with
    | Some h -> h
    | None ->
      incr skipped;
      loop ()
  in
  loop ()

let read_map src ~skipped = function
  | Spec.Map { map_blocks; _ } ->
    let payload = Tapeio.input src (map_blocks * Spec.data_block_size) in
    ignore skipped;
    Bitmap.read (Serde.reader payload)
  | _ -> err "expected a map record"

(* A fully reassembled file record: header plus hole map (with Addr
   continuations consumed). Data blocks are NOT consumed. *)
type file_record = {
  fr_ino : int;
  fr_inode : Inode.t;
  fr_xattrs : (string * string) list;
  fr_nblocks : int;
  fr_present : string; (* raw bitmap bytes *)
}

let block_present fr lbn =
  let byte = lbn lsr 3 in
  byte < String.length fr.fr_present
  && Char.code fr.fr_present.[byte] land (1 lsl (lbn land 7)) <> 0

let present_count fr =
  let n = ref 0 in
  for lbn = 0 to fr.fr_nblocks - 1 do
    if block_present fr lbn then incr n
  done;
  !n

let read_file_record src ~skipped ~ino ~inode ~xattrs ~nblocks ~prefix ~total =
  let buf = Buffer.create total in
  Buffer.add_string buf prefix;
  while Buffer.length buf < total do
    match read_header src ~skipped with
    | Spec.Addr { ino = aino; fragment } when aino = ino -> Buffer.add_string buf fragment
    | _ -> err "hole-map continuation missing for inode %d" ino
  done;
  { fr_ino = ino; fr_inode = inode; fr_xattrs = xattrs; fr_nblocks = nblocks;
    fr_present = Buffer.contents buf }

let skip_data src fr =
  let n = present_count fr in
  if n > 0 then ignore (Tapeio.input src (n * Spec.data_block_size))

let parse_dir_content content =
  Serde.read_list Serde.U32
    (fun r ->
      let ino = Serde.read_u32 r in
      let len = Serde.read_u8 r in
      (Serde.read_fixed r len, ino))
    (Serde.reader content)

(* Read the front matter: tape header, both maps, and the directory
   records. Returns the pending first regular-file record (if any). *)
type front = {
  f_level : int;
  f_root_ino : int;
  f_usage : Bitmap.t;
  f_dumped : Bitmap.t;
  f_dirs : (int, Inode.t * (string * string) list * (string * int) list) Hashtbl.t;
  f_pending : file_record option;
}

let read_front src ~skipped =
  let tape_level, tape_root_ino =
    match read_header src ~skipped with
    | Spec.Tape { level; root_ino; _ } -> (level, root_ino)
    | _ -> err "stream does not begin with a dump header"
  in
  let usage = read_map src ~skipped (read_header src ~skipped) in
  let dumped = read_map src ~skipped (read_header src ~skipped) in
  let dirs = Hashtbl.create 256 in
  let rec loop () =
    match read_header src ~skipped with
    | Spec.File { ino; inode; xattrs; nblocks; present_prefix; present_total } ->
      let fr =
        read_file_record src ~skipped ~ino ~inode ~xattrs ~nblocks
          ~prefix:present_prefix ~total:present_total
      in
      if inode.Inode.kind = Inode.Directory then begin
        let n = present_count fr in
        let raw = Tapeio.input src (n * Spec.data_block_size) in
        let content = String.sub raw 0 (Stdlib.min inode.Inode.size (String.length raw)) in
        Hashtbl.replace dirs ino (inode, xattrs, parse_dir_content content);
        loop ()
      end
      else Some fr
    | Spec.End -> None
    | Spec.Addr _ -> err "unexpected continuation record"
    | Spec.Tape _ | Spec.Map _ -> err "unexpected record in directory section"
  in
  let pending = loop () in
  {
    f_level = tape_level;
    f_root_ino = tape_root_ino;
    f_usage = usage;
    f_dumped = dumped;
    f_dirs = dirs;
    f_pending = pending;
  }

(* ------------------------------------------------------------------ *)
(* Path computation                                                    *)

(* BFS over a tree table, producing ino -> primary absolute path (under
   target), the BFS order (parents before children), and the additional
   names of multiply-linked files: every dirent beyond an inode's first is
   a hard link to recreate. *)
let compute_paths_full ~tree ~root_ino ~target =
  let paths = Hashtbl.create 256 in
  Hashtbl.replace paths root_ino target;
  let order = ref [ root_ino ] in
  let extra_links = ref [] in
  let queue = Queue.create () in
  Queue.add root_ino queue;
  while not (Queue.is_empty queue) do
    let ino = Queue.pop queue in
    let base = Hashtbl.find paths ino in
    match Hashtbl.find_opt tree ino with
    | None -> ()
    | Some entries ->
      List.iter
        (fun (name, child) ->
          let p = if base = "/" then "/" ^ name else base ^ "/" ^ name in
          if not (Hashtbl.mem paths child) then begin
            Hashtbl.replace paths child p;
            order := child :: !order;
            if Hashtbl.mem tree child then Queue.add child queue
          end
          else if not (Hashtbl.mem tree child) then
            (* a second name for a file inode *)
            extra_links := (child, p) :: !extra_links)
        entries
  done;
  (paths, List.rev !order, List.rev !extra_links)

let compute_paths ~tree ~root_ino ~target =
  let paths, order, _ = compute_paths_full ~tree ~root_ino ~target in
  (paths, order)

let rel_of ~target path =
  if String.equal path target then ""
  else
    let tl = String.length target in
    let prefix = if String.equal target "/" then "/" else target ^ "/" in
    if String.length path > tl && String.length prefix <= String.length path
       && String.sub path 0 (String.length prefix) = prefix
    then String.sub path (String.length prefix) (String.length path - String.length prefix)
    else path

let ensure_dir fs path ~perms =
  match Fs.lookup fs path with
  | Some _ -> false
  | None ->
    ignore (Fs.mkdir fs path ~perms);
    true

(* ------------------------------------------------------------------ *)
(* Apply                                                               *)

(* Write the [n] blocks of [run] (newest first), which start at block
   [start_lbn] of [path]; the bytes written. Each block was cut out of
   its tape record by [Tapeio.input] and is lent to the file system
   as it is: no block is copied again on its way to the volume. *)
let write_run cpu fs path start_lbn run n =
  if n = 0 then 0
  else begin
    let len = n * Spec.data_block_size in
    Cost.charge cpu (Float.of_int len *. Cost.f630.restore_write_per_byte);
    Fs.writev fs path ~offset:(start_lbn * Spec.data_block_size) (List.rev run);
    len
  end

let apply_with ~write_run ?(observe = Repro_obs.Obs.observe) ?select session src =
  let skipped = ref 0 in
  (* Reading the front matter (maps and the desiccated directory table) is
     part of the "creating files" stage the paper measures. *)
  let front_ref = ref None in
  observe "creating files" (fun () ->
      let f = read_front src ~skipped in
      let dirents =
        Hashtbl.fold (fun _ (_, _, entries) acc -> acc + List.length entries) f.f_dirs 0
      in
      Cost.charge session.cpu (Float.of_int dirents *. Cost.f630.dump_per_dirent);
      front_ref := Some f);
  let front = Option.get !front_ref in
  let selective = select <> None in
  if session.applied = 0 then session.root_ino <- front.f_root_ino
  else if session.root_ino <> front.f_root_ino && not selective then
    err "stream root inode %d does not match session root %d" front.f_root_ino
      session.root_ino;
  (* Old paths, before overlaying this dump. *)
  let old_paths, _ =
    if session.applied = 0 then (Hashtbl.create 1, [])
    else compute_paths ~tree:session.tree ~root_ino:session.root_ino ~target:session.target
  in
  (* Remember which inodes were directories before this dump, then overlay
     the dumped directories into (a copy of, when selective) the session
     tree. A freed inode number can return as the other kind — detected by
     comparing directory-ness across the overlay. *)
  let was_dir : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.iter (fun ino _ -> Hashtbl.replace was_dir ino ()) session.tree;
  let tree = if selective then Hashtbl.copy session.tree else session.tree in
  Hashtbl.iter (fun ino (_, _, entries) -> Hashtbl.replace tree ino entries) front.f_dirs;
  let root_ino = front.f_root_ino in
  let new_paths, bfs_order, extra_links =
    compute_paths_full ~tree ~root_ino ~target:session.target
  in
  (* Selection closure: a path is selected if its relative form equals a
     selected path or lives beneath one. *)
  let path_selected =
    match select with
    | None -> fun _path -> true
    | Some sel ->
      let norm p =
        if String.length p > 0 && p.[0] = '/' then String.sub p 1 (String.length p - 1)
        else p
      in
      let sel = List.map norm sel in
      fun path ->
        let rel = rel_of ~target:session.target path in
        List.exists
          (fun s ->
            String.equal s rel || String.equal s ""
            || (String.length rel > String.length s
               && String.sub rel 0 (String.length s + 1) = s ^ "/"))
          sel
  in
  (* If the selection names a secondary link of a file whose primary name
     is outside the selection, promote the selected name to primary so the
     file record lands there. *)
  let extra_links =
    if not selective then extra_links
    else
      List.map
        (fun (ino, lpath) ->
          match Hashtbl.find_opt new_paths ino with
          | Some primary when (not (path_selected primary)) && path_selected lpath ->
            Hashtbl.replace new_paths ino lpath;
            (ino, primary)
          | Some _ | None -> (ino, lpath))
        extra_links
  in
  let is_selected ino =
    match Hashtbl.find_opt new_paths ino with
    | Some path -> path_selected path
    | None -> false
  in
  (* An ino needing creation must also have every ancestor dir present;
     selection keeps ancestors implicitly because we create parents on
     demand. *)
  let files_deleted = ref 0 in
  let renames = ref 0 in
  let dirs_created = ref 0 in
  let files_restored = ref 0 in
  let bytes_restored = ref 0 in

  let fs = session.rfs in
  observe "creating files" (fun () ->
      Fs.mkdir_p fs session.target;
      if (not selective) && session.applied > 0 then begin
        (* Incremental reconciliation: moves to temporary names first so
           renames (including swaps) cannot collide, then deletions
           (bottom-up), then the directory pass re-homes everything. *)
        let temp_of ino = session.target ^ "/.rst." ^ string_of_int ino in
        let moved = Hashtbl.create 16 in
        (* An inode that changed kind (file inode number reused for a new
           directory, or vice versa) is a fresh object wearing a recycled
           number: never a rename. *)
        let kind_changed ino =
          Hashtbl.mem new_paths ino
          && Hashtbl.mem was_dir ino <> Hashtbl.mem tree ino
        in
        Hashtbl.iter
          (fun ino old_path ->
            match Hashtbl.find_opt new_paths ino with
            | Some new_path
              when (not (String.equal old_path new_path))
                   && ino <> root_ino
                   && not (kind_changed ino) ->
              Fs.rename fs old_path (temp_of ino);
              Hashtbl.replace moved ino ();
              incr renames
            | Some _ -> ()
            | None ->
              (* Not reachable in the new tree; if also not in usage it was
                 deleted on the source. Handled below. *)
              ())
          old_paths;
        (* Deletions: inodes present before but absent from the usage map,
           plus the old incarnation of any kind-changed inode. *)
        let doomed =
          Hashtbl.fold
            (fun ino old_path acc ->
              let gone =
                ino >= Bitmap.length front.f_usage
                || (not (Bitmap.get front.f_usage ino))
                || kind_changed ino
              in
              if gone && not (Hashtbl.mem moved ino) then (old_path, ino) :: acc
              else acc)
            old_paths []
          (* bottom-up: deeper paths first *)
          |> List.sort (fun (a, _) (b, _) -> compare (String.length b) (String.length a))
        in
        List.iter
          (fun (path, ino) ->
            (try
               if Hashtbl.mem was_dir ino then Fs.rmdir fs path else Fs.unlink fs path
             with Fs.Error _ -> ());
            (* Keep the tree entry when this inode number lives on as a
               fresh directory; only truly-gone inodes leave the tree. *)
            if not (Hashtbl.mem front.f_dirs ino) then Hashtbl.remove session.tree ino;
            incr files_deleted)
          doomed;
        (* Directory pass: BFS; moved dirs return from their temp homes,
           new dirs are created. *)
        List.iter
          (fun ino ->
            if Hashtbl.mem tree ino && ino <> root_ino then begin
              let path = Hashtbl.find new_paths ino in
              if Hashtbl.mem moved ino then begin
                Fs.rename fs (temp_of ino) path;
                Hashtbl.remove moved ino
              end
              else if Fs.lookup fs path = None then begin
                let perms =
                  match Hashtbl.find_opt front.f_dirs ino with
                  | Some (inode, _, _) -> inode.Inode.perms
                  | None -> 0o755
                in
                Cost.charge session.cpu Cost.f630.restore_create_per_file;
                ignore (Fs.mkdir fs path ~perms);
                incr dirs_created
              end
            end)
          bfs_order;
        (* Remaining moved entries are files. *)
        Hashtbl.iter
          (fun ino () -> Fs.rename fs (temp_of ino) (Hashtbl.find new_paths ino))
          moved
      end
      else begin
        (* Full (or selective) restore: create the directory skeleton. *)
        List.iter
          (fun ino ->
            if Hashtbl.mem tree ino && ino <> root_ino && is_selected ino then begin
              let path = Hashtbl.find new_paths ino in
              let perms =
                match Hashtbl.find_opt front.f_dirs ino with
                | Some (inode, _, _) -> inode.Inode.perms
                | None -> 0o755
              in
              Cost.charge session.cpu Cost.f630.restore_create_per_file;
              Fs.mkdir_parents fs path;
              if ensure_dir fs path ~perms then incr dirs_created
            end)
          bfs_order
      end;
      (* Create empty files for everything the stream will fill. *)
      Hashtbl.iter
        (fun ino path ->
          if
            (not (Hashtbl.mem tree ino))
            && ino < Bitmap.length front.f_dumped
            && Bitmap.get front.f_dumped ino
            && is_selected ino
            && Fs.lookup fs path = None
          then begin
            Cost.charge session.cpu Cost.f630.restore_create_per_file;
            Fs.mkdir_parents fs path;
            ignore (Fs.create fs path ~perms:0o600)
          end)
        new_paths;
      (* Stale-name cleanup for incrementals: a dumped directory's entry
         list is authoritative, so live names it no longer contains — the
         removed link of a still-live file — go away here. *)
      if (not selective) && session.applied > 0 then
        Hashtbl.iter
          (fun dino (_, _, entries) ->
            match Hashtbl.find_opt new_paths dino with
            | None -> ()
            | Some dpath ->
              if Fs.lookup fs dpath <> None then
                List.iter
                  (fun (name, _) ->
                    if not (List.mem_assoc name entries) then begin
                      let child =
                        if dpath = "/" then "/" ^ name else dpath ^ "/" ^ name
                      in
                      match Fs.getattr fs child with
                      | attr when attr.Inode.kind = Inode.Regular ->
                        Fs.unlink fs child;
                        incr files_deleted
                      | _ -> ()
                      | exception Fs.Error _ -> ()
                    end)
                  (Fs.readdir fs dpath))
          front.f_dirs;
      (* Hard links: recreate every additional name of multiply-linked
         files. *)
      List.iter
        (fun (ino, lpath) ->
          if path_selected lpath then
            match Hashtbl.find_opt new_paths ino with
            | Some primary
              when Fs.lookup fs primary <> None && Fs.lookup fs lpath = None ->
              Cost.charge session.cpu Cost.f630.restore_create_per_file;
              Fs.mkdir_parents fs lpath;
              Fs.link fs primary lpath
            | Some _ | None -> ())
        extra_links);

  (* Filling in data: stream the file records. *)
  observe "filling in data" (fun () ->
      let handle fr =
        match Hashtbl.find_opt new_paths fr.fr_ino with
        | Some path
          when is_selected fr.fr_ino && fr.fr_inode.Inode.kind = Inode.Symlink ->
          (* symbolic link: the record's data is the target *)
          let buf = Buffer.create 64 in
          for lbn = 0 to fr.fr_nblocks - 1 do
            if block_present fr lbn then
              Buffer.add_string buf (Tapeio.input src Spec.data_block_size)
          done;
          let target =
            String.sub (Buffer.contents buf) 0
              (Stdlib.min fr.fr_inode.Inode.size (Buffer.length buf))
          in
          (* replace whatever placeholder or stale object holds the name *)
          (try Fs.unlink fs path with Fs.Error _ -> ());
          Fs.symlink fs ~target path;
          Fs.set_times fs path ~mtime:fr.fr_inode.Inode.mtime;
          Cost.charge session.cpu
            (Float.of_int (String.length target)
            *. Cost.f630.restore_write_per_byte);
          incr files_restored
        | Some path when is_selected fr.fr_ino ->
          (* the name must hold a regular file before we fill it (it may be
             missing, or a symlink whose inode number was reused) *)
          (match Fs.getattr fs path with
          | attr when attr.Inode.kind <> Inode.Regular ->
            Fs.unlink fs path;
            ignore (Fs.create fs path ~perms:0o600)
          | _ -> ()
          | exception Fs.Error _ ->
            Fs.mkdir_parents fs path;
            ignore (Fs.create fs path ~perms:0o600));
          (* Replace content wholesale: a logical dump always carries the
             whole changed file. *)
          (try Fs.truncate fs path ~size:0 with Fs.Error _ -> ());
          let run_start = ref 0 and run = ref [] and run_len = ref 0 in
          let flush_run () =
            bytes_restored :=
              !bytes_restored + write_run session.cpu fs path !run_start !run !run_len;
            run := [];
            run_len := 0
          in
          for lbn = 0 to fr.fr_nblocks - 1 do
            if block_present fr lbn then begin
              if !run_len = 0 then run_start := lbn;
              run := Tapeio.input src Spec.data_block_size :: !run;
              incr run_len;
              if !run_len >= 16 then flush_run ()
            end
            else flush_run ()
          done;
          flush_run ();
          if fr.fr_inode.Inode.size < fr.fr_nblocks * Spec.data_block_size then
            Fs.truncate fs path ~size:fr.fr_inode.Inode.size;
          Fs.set_perms fs path ~perms:fr.fr_inode.Inode.perms;
          Fs.set_owner fs path ~uid:fr.fr_inode.Inode.uid ~gid:fr.fr_inode.Inode.gid;
          (* Attributes are replaced wholesale: an incremental may be
             rewriting a reused inode number, so stale flags and xattrs
             from the previous incarnation must not survive. *)
          Fs.set_dos_flags fs path ~flags:fr.fr_inode.Inode.dos_flags;
          List.iter
            (fun (name, _) ->
              if not (List.mem_assoc name fr.fr_xattrs) then
                Fs.remove_xattr fs path ~name)
            (Fs.xattrs fs path);
          List.iter
            (fun (name, value) -> Fs.set_xattr fs path ~name ~value)
            fr.fr_xattrs;
          Fs.set_times fs path ~mtime:fr.fr_inode.Inode.mtime;
          incr files_restored
        | Some _ | None -> skip_data src fr
      in
      (match front.f_pending with Some fr -> handle fr | None -> ());
      if front.f_pending <> None then begin
        let continue = ref true in
        while !continue do
          match read_header src ~skipped with
          | Spec.File { ino; inode; xattrs; nblocks; present_prefix; present_total } ->
            let fr =
              read_file_record src ~skipped ~ino ~inode ~xattrs ~nblocks
                ~prefix:present_prefix ~total:present_total
            in
            handle fr
          | Spec.End -> continue := false
          | Spec.Addr _ -> err "unexpected continuation record"
          | Spec.Tape _ | Spec.Map _ -> err "unexpected record in file section"
        done
      end;
      (* Final pass: directory permissions and times, disturbed by child
         creation (paper §3). *)
      Hashtbl.iter
        (fun ino (inode, xattrs, _) ->
          match Hashtbl.find_opt new_paths ino with
          | Some path when is_selected ino && Fs.lookup fs path <> None ->
            Fs.set_perms fs path ~perms:inode.Inode.perms;
            Fs.set_owner fs path ~uid:inode.Inode.uid ~gid:inode.Inode.gid;
            List.iter (fun (name, value) -> Fs.set_xattr fs path ~name ~value) xattrs;
            Fs.set_times fs path ~mtime:inode.Inode.mtime
          | Some _ | None -> ())
        front.f_dirs;
      (* Commit: the data is not restored until it is on disk. *)
      Fs.cp fs);

  if not selective then begin
    (* Persist the new tree picture in the session. *)
    Hashtbl.iter (fun ino (_, _, entries) -> Hashtbl.replace session.tree ino entries)
      front.f_dirs;
    session.prior_usage <- Some front.f_usage;
    session.applied <- session.applied + 1
  end;
  Repro_obs.Obs.count "restore.files" !files_restored;
  Repro_obs.Obs.count "restore.dirs_created" !dirs_created;
  Repro_obs.Obs.count "restore.files_deleted" !files_deleted;
  Repro_obs.Obs.count "restore.bytes_restored" !bytes_restored;
  Repro_obs.Obs.count "restore.corrupt_headers_skipped" !skipped;
  {
    files_restored = !files_restored;
    dirs_created = !dirs_created;
    files_deleted = !files_deleted;
    renames = !renames;
    bytes_restored = !bytes_restored;
    corrupt_headers_skipped = !skipped;
  }

let apply ?observe ?select session src = apply_with ~write_run ?observe ?select session src

let compare ~fs ~target src =
  let skipped = ref 0 in
  let front = read_front src ~skipped in
  let diffs = ref [] in
  let count = ref 0 in
  let note fmt =
    Printf.ksprintf
      (fun s ->
        incr count;
        if !count <= 50 then diffs := s :: !diffs)
      fmt
  in
  if !skipped > 0 then note "stream: %d corrupt headers skipped" !skipped;
  let tree = Hashtbl.create 256 in
  Hashtbl.iter (fun ino (_, _, entries) -> Hashtbl.replace tree ino entries) front.f_dirs;
  let paths, _ = compute_paths ~tree ~root_ino:front.f_root_ino ~target in
  (* directory structure and attributes *)
  Hashtbl.iter
    (fun ino (inode, xattrs, entries) ->
      match Hashtbl.find_opt paths ino with
      | None -> ()
      | Some path -> (
        match Fs.lookup fs path with
        | None -> note "%s: missing directory" path
        | Some live_ino ->
          let live = Fs.getattr_ino fs live_ino in
          if live.Inode.kind <> Inode.Directory then note "%s: not a directory" path
          else begin
            if live.Inode.perms <> inode.Inode.perms then
              note "%s: perms %o vs %o" path live.Inode.perms inode.Inode.perms;
            let live_x = List.sort Stdlib.compare (Fs.xattrs fs path) in
            if live_x <> List.sort Stdlib.compare xattrs then note "%s: xattrs differ" path;
            let live_names = List.sort Stdlib.compare (List.map fst (Fs.readdir fs path)) in
            let tape_names = List.sort Stdlib.compare (List.map fst entries) in
            List.iter
              (fun n -> if not (List.mem n live_names) then note "%s/%s: missing" path n)
              tape_names;
            List.iter
              (fun n ->
                if not (List.mem n tape_names) then note "%s/%s: not on tape" path n)
              live_names
          end))
    front.f_dirs;
  (* file records *)
  let check fr =
    match Hashtbl.find_opt paths fr.fr_ino with
    | None -> skip_data src fr
    | Some path -> (
      match Fs.lookup fs path with
      | None ->
        note "%s: missing file" path;
        skip_data src fr
      | Some live_ino when fr.fr_inode.Inode.kind = Inode.Symlink ->
        let live = Fs.getattr_ino fs live_ino in
        let buf = Buffer.create 64 in
        for lbn = 0 to fr.fr_nblocks - 1 do
          if block_present fr lbn then
            Buffer.add_string buf (Tapeio.input src Spec.data_block_size)
        done;
        if live.Inode.kind <> Inode.Symlink then note "%s: not a symlink" path
        else begin
          let target =
            String.sub (Buffer.contents buf) 0
              (Stdlib.min fr.fr_inode.Inode.size (Buffer.length buf))
          in
          if not (String.equal target (Fs.readlink fs path)) then
            note "%s: symlink target differs" path
        end
      | Some live_ino ->
        let live = Fs.getattr_ino fs live_ino in
        if live.Inode.kind <> Inode.Regular then begin
          note "%s: not a regular file" path;
          skip_data src fr
        end
        else begin
          if live.Inode.size <> fr.fr_inode.Inode.size then
            note "%s: size %d vs %d" path live.Inode.size fr.fr_inode.Inode.size;
          if live.Inode.perms <> fr.fr_inode.Inode.perms then
            note "%s: perms %o vs %o" path live.Inode.perms fr.fr_inode.Inode.perms;
          if live.Inode.dos_flags <> fr.fr_inode.Inode.dos_flags then
            note "%s: dos flags differ" path;
          if
            List.sort Stdlib.compare (Fs.xattrs fs path)
            <> List.sort Stdlib.compare fr.fr_xattrs
          then note "%s: xattrs differ" path;
          (* content, block by block; the tape must be consumed anyway *)
          let mismatch = ref false in
          for lbn = 0 to fr.fr_nblocks - 1 do
            if block_present fr lbn then begin
              let tape_block = Tapeio.input src Spec.data_block_size in
              let off = lbn * Spec.data_block_size in
              let want =
                Stdlib.min Spec.data_block_size
                  (Stdlib.max 0 (fr.fr_inode.Inode.size - off))
              in
              if not !mismatch && want > 0 then begin
                let live_data = Fs.read fs path ~offset:off ~len:want in
                if not (String.equal live_data (String.sub tape_block 0 (String.length live_data)))
                then begin
                  mismatch := true;
                  note "%s: content differs near offset %d" path off
                end
              end
            end
          done
        end)
  in
  (match front.f_pending with Some fr -> check fr | None -> ());
  if front.f_pending <> None then begin
    let continue = ref true in
    while !continue do
      match read_header src ~skipped with
      | Spec.File { ino; inode; xattrs; nblocks; present_prefix; present_total } ->
        check
          (read_file_record src ~skipped ~ino ~inode ~xattrs ~nblocks
             ~prefix:present_prefix ~total:present_total)
      | Spec.End -> continue := false
      | Spec.Addr _ | Spec.Tape _ | Spec.Map _ -> err "unexpected record"
    done
  end;
  match !diffs with
  | [] -> Ok ()
  | l ->
    let l = List.rev l in
    let l =
      if !count > 50 then l @ [ Printf.sprintf "... and %d more" (!count - 50) ] else l
    in
    Error l

let table_of_contents src =
  let skipped = ref 0 in
  let front = read_front src ~skipped in
  let tree = Hashtbl.create 256 in
  Hashtbl.iter (fun ino (_, _, entries) -> Hashtbl.replace tree ino entries) front.f_dirs;
  let paths, order, extras =
    compute_paths_full ~tree ~root_ino:front.f_root_ino ~target:""
  in
  let strip path =
    if String.length path > 0 && path.[0] = '/' then
      String.sub path 1 (String.length path - 1)
    else path
  in
  List.filter_map
    (fun ino ->
      match Hashtbl.find_opt paths ino with
      | Some path -> Some { rel_path = strip path; ino; is_dir = Hashtbl.mem tree ino }
      | None -> None)
    order
  @ List.map (fun (ino, path) -> { rel_path = strip path; ino; is_dir = false }) extras

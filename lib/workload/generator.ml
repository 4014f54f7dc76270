module Prng = Repro_util.Prng
module Fs = Repro_wafl.Fs
module Inode = Repro_wafl.Inode

type profile = {
  seed : int;
  median_file_bytes : float;
  sigma : float;
  files_per_dir : int;
  dirs_per_dir : int;
  max_depth : int;
}

let default =
  {
    seed = 1;
    median_file_bytes = 8192.0;
    sigma = 1.4;
    files_per_dir = 12;
    dirs_per_dir = 3;
    max_depth = 4;
  }

(* Fraction of files given DOS/ACL attributes. *)
let xattr_fraction = 0.1

type stats = { files : int; dirs : int; bytes : int }

(* Deterministic, cheap file content: a seeded 4 KB tile repeated with a
   varying 16-byte stamp per block, so content differs per block but is
   fast to produce and somewhat compressible, like real data. *)
let content rng size =
  let tile = Bytes.create 4096 in
  Prng.fill rng tile 0 4096;
  let b = Bytes.create size in
  let pos = ref 0 in
  let blk = ref 0 in
  while !pos < size do
    let n = Stdlib.min 4096 (size - !pos) in
    Bytes.blit tile 0 b !pos n;
    if n >= 16 then begin
      Bytes.set_int64_le b !pos (Int64.of_int !blk);
      Bytes.set_int64_le b (!pos + 8) (Prng.int64 rng)
    end;
    incr blk;
    pos := !pos + n
  done;
  Bytes.to_string b

let sample_size rng p =
  let mu = Float.log p.median_file_bytes in
  let s = Prng.lognormal rng ~mu ~sigma:p.sigma in
  Stdlib.max 1 (Stdlib.min (Float.to_int s) (32 * 1024 * 1024))

let dos_name_of name =
  let upper = String.uppercase_ascii name in
  let base = String.concat "" (String.split_on_char '.' upper) in
  let short = String.sub base 0 (Stdlib.min 6 (String.length base)) in
  short ^ "~1.DAT"

let p_populate = Repro_prof.Prof.probe "workload.populate"

let populate ?(profile = default) ~fs ~root ~total_bytes () =
  Repro_prof.Prof.with_probe p_populate @@ fun () ->
  let p = profile in
  let rng = Prng.create p.seed in
  if Fs.lookup fs root = None then ignore (Fs.mkdir fs root ~perms:0o755);
  (* Build the directory skeleton first. *)
  let dirs = ref [ root ] in
  let ndirs = ref 0 in
  let rec grow base depth =
    if depth < p.max_depth then
      for d = 0 to p.dirs_per_dir - 1 do
        let path = Printf.sprintf "%s/d%d_%d" base depth d in
        (match Fs.lookup fs path with
        | None ->
          ignore (Fs.mkdir fs path ~perms:0o755);
          incr ndirs
        | Some _ -> ());
        dirs := path :: !dirs;
        (* Taper: not every directory has the full set of children. *)
        if Prng.float rng 1.0 < 0.8 then grow path (depth + 1)
      done
  in
  grow root 0;
  let dir_array = Array.of_list !dirs in
  let files = ref 0 in
  let bytes = ref 0 in
  while !bytes < total_bytes do
    let dir = Prng.choose rng dir_array in
    let path = Printf.sprintf "%s/f%06d.dat" dir !files in
    if Fs.lookup fs path = None then begin
      ignore (Fs.create fs path ~perms:(Prng.choose rng [| 0o644; 0o600; 0o755 |]));
      Fs.set_owner fs path ~uid:(1000 + Prng.int rng 8) ~gid:(100 + Prng.int rng 3);
      let size = sample_size rng p in
      Fs.write fs path ~offset:0 (content rng size);
      if Prng.float rng 1.0 < xattr_fraction then begin
        Fs.set_xattr fs path ~name:"dos.name" ~value:(dos_name_of (Filename.basename path));
        Fs.set_dos_flags fs path ~flags:(Prng.int rng 0x40);
        if Prng.float rng 1.0 < 0.5 then
          Fs.set_xattr fs path ~name:"nt.acl" ~value:"D:(A;;FA;;;BA)(A;;FR;;;WD)"
      end;
      (* an occasional second name: real trees have hard links *)
      if Prng.float rng 1.0 < 0.03 then begin
        let ldir = Prng.choose rng dir_array in
        let lpath = Printf.sprintf "%s/l%06d.lnk" ldir !files in
        if Fs.lookup fs lpath = None then Fs.link fs path lpath
      end;
      (* ...and symbolic links *)
      if Prng.float rng 1.0 < 0.02 then begin
        let sdir = Prng.choose rng dir_array in
        let spath = Printf.sprintf "%s/s%06d.sym" sdir !files in
        if Fs.lookup fs spath = None then Fs.symlink fs ~target:path spath
      end;
      bytes := !bytes + size;
      incr files
    end
    else incr files
  done;
  Fs.cp fs;
  { files = !files; dirs = !ndirs; bytes = !bytes }

let file_paths fs root =
  let acc = ref [] in
  let rec walk path =
    List.iter
      (fun (name, _) ->
        let child = if path = "/" then "/" ^ name else path ^ "/" ^ name in
        match (Fs.getattr fs child).Inode.kind with
        | Inode.Directory -> walk child
        | Inode.Regular -> acc := child :: !acc
        | Inode.Symlink | Inode.Free -> ())
      (Fs.readdir fs path)
  in
  walk root;
  List.sort String.compare !acc

type kind = Free | Regular | Directory | Symlink

type t = {
  kind : kind;
  nlink : int;
  perms : int;
  uid : int;
  gid : int;
  size : int;
  atime : float;
  mtime : float;
  ctime : float;
  gen : int;
  qtree : int;
  dos_flags : int;
  xattr_vbn : int;
  direct : int array;
  single : int;
  double : int;
}

let free =
  {
    kind = Free;
    nlink = 0;
    perms = 0;
    uid = 0;
    gid = 0;
    size = 0;
    atime = 0.0;
    mtime = 0.0;
    ctime = 0.0;
    gen = 0;
    qtree = 0;
    dos_flags = 0;
    xattr_vbn = Layout.no_block;
    direct = Array.make Layout.ndirect Layout.no_block;
    single = Layout.no_block;
    double = Layout.no_block;
  }

let make ~kind ~perms ?(uid = 0) ?(gid = 0) ?(qtree = 0) ~now () =
  {
    free with
    kind;
    nlink = 1;
    perms;
    uid;
    gid;
    qtree;
    atime = now;
    mtime = now;
    ctime = now;
  }

let is_free t = t.kind = Free
let nblocks t = (t.size + 4095) / 4096

let kind_code = function Free -> 0 | Regular -> 1 | Directory -> 2 | Symlink -> 3

let kind_of_code = function
  | 0 -> Free
  | 1 -> Regular
  | 2 -> Directory
  | 3 -> Symlink
  | n -> raise (Repro_util.Serde.Corrupt (Printf.sprintf "bad inode kind %d" n))

let write w t =
  let open Repro_util.Serde in
  write_u8 w (kind_code t.kind);
  write_u16 w t.nlink;
  write_u16 w t.perms;
  write_u32 w t.uid;
  write_u32 w t.gid;
  write_u64 w (Int64.of_int t.size);
  write_u64 w (Int64.bits_of_float t.atime);
  write_u64 w (Int64.bits_of_float t.mtime);
  write_u64 w (Int64.bits_of_float t.ctime);
  write_u32 w t.gen;
  write_u16 w t.qtree;
  write_u16 w t.dos_flags;
  write_u32 w t.xattr_vbn;
  Array.iter (fun p -> write_u32 w p) t.direct;
  write_u32 w t.single;
  write_u32 w t.double

let read r =
  let open Repro_util.Serde in
  let kind = kind_of_code (read_u8 r) in
  let nlink = read_u16 r in
  let perms = read_u16 r in
  let uid = read_u32 r in
  let gid = read_u32 r in
  let size = Int64.to_int (read_u64 r) in
  let atime = Int64.float_of_bits (read_u64 r) in
  let mtime = Int64.float_of_bits (read_u64 r) in
  let ctime = Int64.float_of_bits (read_u64 r) in
  let gen = read_u32 r in
  let qtree = read_u16 r in
  let dos_flags = read_u16 r in
  let xattr_vbn = read_u32 r in
  let direct = Array.init Layout.ndirect (fun _ -> read_u32 r) in
  let single = read_u32 r in
  let double = read_u32 r in
  {
    kind;
    nlink;
    perms;
    uid;
    gid;
    size;
    atime;
    mtime;
    ctime;
    gen;
    qtree;
    dos_flags;
    xattr_vbn;
    direct;
    single;
    double;
  }

let encode t =
  let open Repro_util.Serde in
  let w = writer ~initial_size:Layout.inode_size () in
  write w t;
  let body = contents w in
  assert (String.length body <= Layout.inode_size);
  let b = Bytes.make Layout.inode_size '\000' in
  Bytes.blit_string body 0 b 0 (String.length body);
  b

let decode block ~pos =
  read (Repro_util.Serde.reader ~pos (Bytes.unsafe_to_string block))

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
  write_float w t.atime;
  write_float w t.mtime;
  write_float w t.ctime;
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
  let atime = read_float r in
  let mtime = read_float r in
  let ctime = read_float r in
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

(* The slot layout [write] produces, written straight into the block:
   every field range-checked before the first byte changes. *)
let encoded_size = 57 + (4 * Layout.ndirect) + 8

let encode_into b ~pos t =
  let fits bits v = v >= 0 && v lsr bits = 0 in
  if
    pos < 0
    || pos > Bytes.length b - Layout.inode_size
    || Array.length t.direct <> Layout.ndirect
    || not
         (fits 16 t.nlink && fits 16 t.perms && fits 32 t.uid && fits 32 t.gid
        && fits 32 t.gen && fits 16 t.qtree && fits 16 t.dos_flags
        && fits 32 t.xattr_vbn && fits 32 t.single && fits 32 t.double
        && Array.for_all (fits 32) t.direct)
  then invalid_arg "Inode.encode_into";
  let u32 off v = Bytes.set_int32_le b (pos + off) (Int32.of_int v) in
  let f64 off x = Bytes.set_int64_le b (pos + off) (Int64.bits_of_float x) in
  Bytes.set_uint8 b pos (kind_code t.kind);
  Bytes.set_uint16_le b (pos + 1) t.nlink;
  Bytes.set_uint16_le b (pos + 3) t.perms;
  u32 5 t.uid;
  u32 9 t.gid;
  Bytes.set_int64_le b (pos + 13) (Int64.of_int t.size);
  f64 21 t.atime;
  f64 29 t.mtime;
  f64 37 t.ctime;
  u32 45 t.gen;
  Bytes.set_uint16_le b (pos + 49) t.qtree;
  Bytes.set_uint16_le b (pos + 51) t.dos_flags;
  u32 53 t.xattr_vbn;
  Array.iteri (fun i p -> u32 (57 + (4 * i)) p) t.direct;
  u32 (encoded_size - 8) t.single;
  u32 (encoded_size - 4) t.double;
  Bytes.fill b (pos + encoded_size) (Layout.inode_size - encoded_size) '\000'

let decode block ~pos = read (Repro_util.Serde.reader ~pos block)

module Serde = Repro_util.Serde
module Crc32 = Repro_util.Crc32

let header_size = 1024
let header_magic = "WDHDR1"
let data_block_size = 4096

type header =
  | Tape of {
      level : int;
      dump_date : float;
      base_date : float;
      label : string;
      root_ino : int;
      max_inodes : int;
    }
  | Map of { map_kind : [ `Usage | `Dumped ]; inodes : int; map_blocks : int }
  | File of {
      ino : int;
      inode : Repro_wafl.Inode.t;
      xattrs : (string * string) list;
      nblocks : int;
      present_prefix : string;
      present_total : int;
    }
  | Addr of { ino : int; fragment : string }
  | End

let t_tape = 1
let t_map_usage = 2
let t_map_dumped = 3
let t_file = 4
let t_addr = 5
let t_end = 6

(* Fixed overhead inside a File header: magic(6) + type(1) + ino(4) +
   inode(~140) + nblocks(4) + total(4) + prefix length(4) + xattr count(2)
   + crc(4), rounded up generously. *)
let file_fixed_overhead = 200

let xattrs_size xattrs =
  List.fold_left (fun acc (k, v) -> acc + 8 + String.length k + String.length v) 0 xattrs

let file_header_capacity ~xattrs =
  let cap = header_size - file_fixed_overhead - xattrs_size xattrs in
  Stdlib.max 0 cap

let addr_capacity = header_size - 32

let seal w =
  let body = Serde.contents w in
  if String.length body + 4 > header_size then
    invalid_arg "Spec.encode: header overflow";
  let b = Bytes.make header_size '\000' in
  Bytes.blit_string body 0 b 0 (String.length body);
  let crc = Crc32.substring (Bytes.unsafe_to_string b) 0 (header_size - 4) in
  Bytes.set_int32_le b (header_size - 4) (Int32.of_int crc);
  Bytes.to_string b

(* One warm writer per domain for all its headers (encode completes
   before returning) and one zeroed block map per domain for the
   canonicalized inode image — both were fresh allocations per emitted
   header. *)
let encode_pool =
  Domain.DLS.new_key (fun () ->
      (Serde.writer ~initial_size:header_size (), Array.make Repro_wafl.Layout.ndirect 0))

let encode h =
  let open Serde in
  let w, zero_direct = Domain.DLS.get encode_pool in
  clear w;
  write_fixed w header_magic;
  (match h with
  | Tape { level; dump_date; base_date; label; root_ino; max_inodes } ->
    write_u8 w t_tape;
    write_u8 w level;
    write_float w dump_date;
    write_float w base_date;
    write_string w label;
    write_u32 w root_ino;
    write_u32 w max_inodes
  | Map { map_kind; inodes; map_blocks } ->
    write_u8 w (match map_kind with `Usage -> t_map_usage | `Dumped -> t_map_dumped);
    write_u32 w inodes;
    write_u32 w map_blocks
  | File { ino; inode; xattrs; nblocks; present_prefix; present_total } ->
    write_u8 w t_file;
    write_u32 w ino;
    Repro_wafl.Inode.write w
      { inode with direct = zero_direct; single = 0; double = 0; xattr_vbn = 0 };
    write_u32 w nblocks;
    write_u32 w present_total;
    write_string w present_prefix;
    write_u16 w (List.length xattrs);
    List.iter
      (fun (k, v) ->
        write_string w k;
        write_string w v)
      xattrs
  | Addr { ino; fragment } ->
    write_u8 w t_addr;
    write_u32 w ino;
    write_string w fragment
  | End -> write_u8 w t_end);
  seal w

let decode s =
  if String.length s <> header_size then None
  else
    let stored = Int32.to_int (String.get_int32_le s (header_size - 4)) land 0xffffffff in
    if stored <> Crc32.substring s 0 (header_size - 4) then None
    else
      let open Serde in
      try
        let r = reader s in
        expect_magic r header_magic;
        let t = read_u8 r in
        if t = t_tape then begin
          let level = read_u8 r in
          let dump_date = read_float r in
          let base_date = read_float r in
          let label = read_string r in
          let root_ino = read_u32 r in
          let max_inodes = read_u32 r in
          Some (Tape { level; dump_date; base_date; label; root_ino; max_inodes })
        end
        else if t = t_map_usage || t = t_map_dumped then begin
          let inodes = read_u32 r in
          let map_blocks = read_u32 r in
          let map_kind = if t = t_map_usage then `Usage else `Dumped in
          Some (Map { map_kind; inodes; map_blocks })
        end
        else if t = t_file then begin
          let ino = read_u32 r in
          let inode = Repro_wafl.Inode.read r in
          let nblocks = read_u32 r in
          let present_total = read_u32 r in
          let present_prefix = read_string r in
          let nx = read_u16 r in
          let xattrs =
            List.init nx (fun _ ->
                let k = read_string r in
                let v = read_string r in
                (k, v))
          in
          Some (File { ino; inode; xattrs; nblocks; present_prefix; present_total })
        end
        else if t = t_addr then begin
          let ino = read_u32 r in
          let fragment = read_string r in
          Some (Addr { ino; fragment })
        end
        else if t = t_end then Some End
        else None
      with Corrupt _ -> None

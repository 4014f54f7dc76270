type snap_entry = {
  snap_id : int;
  plane : int;
  snap_name : string;
  created : float;
  snap_root : Inode.t;
}

type t = {
  generation : int;
  cp_time : float;
  volume_blocks : int;
  max_inodes : int;
  next_snap_id : int;
  next_qtree : int;
  qtree_limits : (int * int) list;
  root : Inode.t;
  snaps : snap_entry list;
}

let encode t =
  let open Repro_util.Serde in
  let w = writer ~initial_size:4096 () in
  write_fixed w Layout.fsinfo_magic;
  write_int w t.generation;
  write_float w t.cp_time;
  write_u32 w t.volume_blocks;
  write_u32 w t.max_inodes;
  write_u32 w t.next_snap_id;
  write_u32 w t.next_qtree;
  write_list U16
    (fun w (qid, limit) ->
      write_u16 w qid;
      write_int w limit)
    w t.qtree_limits;
  Inode.write w t.root;
  write_list U8
    (fun w s ->
      write_u32 w s.snap_id;
      write_u8 w s.plane;
      write_string w s.snap_name;
      write_float w s.created;
      Inode.write w s.snap_root)
    w t.snaps;
  let body = contents w in
  if String.length body + 4 > 4096 then invalid_arg "Fsinfo.encode: overflow";
  let b = Bytes.make 4096 '\000' in
  Bytes.blit_string body 0 b 0 (String.length body);
  (* CRC over the zero-padded body, stored in the last 4 bytes. *)
  let crc = Repro_util.Crc32.substring (Bytes.unsafe_to_string b) 0 4092 in
  Bytes.set_int32_le b 4092 (Int32.of_int crc);
  Bytes.unsafe_to_string b

let decode b =
  if String.length b <> 4096 then None
  else
    let stored = Int32.to_int (String.get_int32_le b 4092) land 0xffffffff in
    let crc = Repro_util.Crc32.substring b 0 4092 in
    if stored <> crc then None
    else
      let open Repro_util.Serde in
      try
        let r = reader b in
        expect_magic r Layout.fsinfo_magic;
        let generation = read_int r in
        let cp_time = read_float r in
        let volume_blocks = read_u32 r in
        let max_inodes = read_u32 r in
        let next_snap_id = read_u32 r in
        let next_qtree = read_u32 r in
        let qtree_limits =
          read_list U16
            (fun r ->
              let qid = read_u16 r in
              (qid, read_int r))
            r
        in
        let root = Inode.read r in
        let snaps =
          read_list U8
            (fun r ->
              let snap_id = read_u32 r in
              let plane = read_u8 r in
              let snap_name = read_string r in
              let created = read_float r in
              let snap_root = Inode.read r in
              { snap_id; plane; snap_name; created; snap_root })
            r
        in
        Some
          {
            generation;
            cp_time;
            volume_blocks;
            max_inodes;
            next_snap_id;
            next_qtree;
            qtree_limits;
            root;
            snaps;
          }
      with Corrupt _ -> None

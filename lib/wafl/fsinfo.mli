(** The fsinfo block: the one fixed-location structure.

    "The only exception to the write-anywhere policy is that one inode (in
    WAFL's case the inode describing the inode file) must be written in a
    fixed location ... Naturally, this inode is written redundantly"
    (paper §2). Copies live at vbns 0 and 1; mount prefers the valid copy
    with the higher generation, so a torn write of one copy is survivable.

    Besides the root inode, the block carries the snapshot table — each
    entry a duplicate of the root data structure at snapshot time plus its
    bit-plane assignment — which is what makes a snapshot a complete,
    self-describing file-system tree. *)

type snap_entry = {
  snap_id : int;  (** monotonically increasing id *)
  plane : int;  (** bit plane in the block map *)
  snap_name : string;
  created : float;
  snap_root : Inode.t;  (** the inode file's inode at snapshot time *)
}

type t = {
  generation : int;  (** consistency-point generation *)
  cp_time : float;
  volume_blocks : int;
  max_inodes : int;
  next_snap_id : int;
  next_qtree : int;
  qtree_limits : (int * int) list;  (** (qtree id, byte limit) *)
  root : Inode.t;  (** the inode describing the inode file *)
  snaps : snap_entry list;  (** ordered by id *)
}

val encode : t -> string
(** One 4 KB block: magic, payload, CRC-32 trailer. Raises
    [Invalid_argument] if the snapshot table overflows the block. *)

val decode : string -> t option
(** [None] if magic or CRC is wrong — the mount path's torn-write check. *)

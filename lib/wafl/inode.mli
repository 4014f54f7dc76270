(** Inodes and their 256-byte on-disk codec.

    WAFL uses inodes to describe its files; all inodes live in the inode
    file (paper §2). Besides the classic BSD attributes, inodes carry the
    multi-protocol extras the paper lists as dump-format extensions — DOS
    attribute bits and a pointer to an extended-attribute block holding the
    DOS 8.3 name and an NT ACL — plus a quota-tree id. *)

type kind = Free | Regular | Directory | Symlink

type t = {
  kind : kind;
  nlink : int;
  perms : int;
  uid : int;
  gid : int;
  size : int;  (** bytes *)
  atime : float;
  mtime : float;
  ctime : float;
  gen : int;  (** generation, bumped on reuse of the inode slot *)
  qtree : int;  (** quota-tree id; 0 = none *)
  dos_flags : int;  (** DOS attribute bits (archive/hidden/system/readonly) *)
  xattr_vbn : int;  (** block of extended attributes; {!Layout.no_block} if none *)
  direct : int array;  (** [Layout.ndirect] block pointers *)
  single : int;  (** single-indirect block pointer *)
  double : int;  (** double-indirect block pointer *)
}

val free : t
(** An unallocated inode slot (what a never-written inode-file hole decodes
    to). *)

val make : kind:kind -> perms:int -> ?uid:int -> ?gid:int -> ?qtree:int -> now:float -> unit -> t

val is_free : t -> bool
val nblocks : t -> int
(** Size in 4 KB blocks ([Block.blocks_for size]). *)

val encode_into : bytes -> pos:int -> t -> unit
(** [encode_into block ~pos t] overwrites the {!Layout.inode_size}-byte
    slot at [pos] in place: the {!write} form, zero-padded. Raises
    [Invalid_argument], leaving the block unchanged, if the slot does not
    fit in the block or a field is out of its on-disk range. *)

val decode : string -> pos:int -> t
(** Raises [Serde.Corrupt] on a malformed slot. *)

val write : Repro_util.Serde.writer -> t -> unit
(** Unpadded form, for embedding in the fsinfo block and dump headers. *)

val read : Repro_util.Serde.reader -> t

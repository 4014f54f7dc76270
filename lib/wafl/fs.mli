(** The WAFL-style write-anywhere file system.

    Structure follows paper §2:
    - 4 KB blocks, no fragments; inodes describe files; directories are
      specially formatted files.
    - Meta-data lives in files: the inode file (all inodes) and the
      block-map file (32 bit planes). Nothing but the fsinfo block has a
      fixed location.
    - Mutations accumulate in an in-memory buffer cache; a {e consistency
      point} (CP) allocates fresh locations for every dirty block
      (copy-on-write — no block referenced by the on-disk tree or any
      snapshot is ever overwritten), writes them out through the RAID layer
      in large sorted batches (full-stripe writes when possible), and
      finally rewrites the fsinfo block redundantly. A crash at any moment
      leaves the most recent CP intact.
    - Snapshots duplicate the root data structure and capture plane 0 of
      the block map into the snapshot's plane, all inside a single CP.
    - An attached {!Nvram.t} logs each mutation since the last CP as the
      {!Nvram.op} that describes it, and mount replays the log through the
      very code that ran each op live. {!set_times} is not logged: a crash
      before the next CP loses it.

    Paths are slash-separated, rooted at ["/"]. The file system is
    single-writer (one simulated filer). *)

type t

type config = {
  costs : Repro_sim.Cost.t;
  cpu : Repro_sim.Resource.t option;  (** CPU to charge; [None] = free *)
  auto_cp_ops : int;  (** take a CP every N mutations; 0 disables *)
  now : unit -> float;  (** timestamp source *)
}

val default_config : unit -> config
(** No CPU accounting, auto-CP every 100k operations, logical timestamps. *)

val config_of : t -> config
(** The configuration this instance was mounted with — what a remount
    after a physical restore must carry over. *)

exception Error of string
(** Raised on all failed operations ([ENOENT], [EEXIST], [ENOTDIR], full
    volume...), with a descriptive message. *)

(** {1 Lifecycle} *)

val mkfs : ?config:config -> ?nvram:Nvram.t -> Repro_block.Volume.t -> t
(** Initialize a volume: root directory, metadata files, first CP. The
    inode file holds one inode per 4 data blocks, at least 1024. *)

val mount : ?config:config -> ?nvram:Nvram.t -> Repro_block.Volume.t -> t
(** Mount from the newest valid fsinfo copy, then replay any NVRAM entries
    tagged with its generation and take a CP. Raises [Error] if no valid
    fsinfo block is found. *)

val crash : t -> unit
(** Drop every in-memory structure without writing anything — the power
    cord. The handle becomes unusable; remount the volume to recover. *)

val cp : t -> unit
(** Take a consistency point now. *)

val generation : t -> int
val now : t -> float
(** A timestamp from the file system's configured time source — the
    timeline inode mtimes live on, which incremental dump compares
    against. *)

val volume : t -> Repro_block.Volume.t
val max_inodes : t -> int
val size_blocks : t -> int
val used_blocks : t -> int
(** Blocks in the active file system (plane 0). *)

val free_blocks : t -> int
(** Blocks in no plane at all. *)

val blockmap : t -> Blockmap.t
(** The live block map (shared, read with care): the hook the physical
    dump uses — "image dump uses the file system only to access the block
    map information" (paper §4.1). *)

(** {1 Namespace operations} *)

val mkdir : t -> string -> perms:int -> int
val create : t -> string -> perms:int -> int
(** Both return the new inode number; raise [Error] if the parent is
    missing or the name exists. *)

val mkdir_p : t -> string -> unit
(** Create [path], if missing, and every missing directory above it,
    each with perms 0o755: one [lookup] per level from [path] up to the
    first that exists, then one [mkdir] per missing level, top down. *)

val mkdir_parents : t -> string -> unit
(** {!mkdir_p} of everything above [path] (up to its last ['/']), not
    [path] itself. *)

val lookup : t -> string -> int option
val unlink : t -> string -> unit
val rmdir : t -> string -> unit
(** Raises [Error] unless the directory is empty. *)

val rename : t -> string -> string -> unit
(** Atomic; replaces an existing destination file (if the destination is
    another name for the same file, the source name is simply removed, as
    POSIX specifies). Raises [Error] if the destination lies below the
    source. *)

val link : t -> string -> string -> unit
(** [link t existing path]: a hard link — another name for the same
    inode. Files only; the paper's dump format is inode-based precisely so
    multiply-linked files are stored once. *)

val symlink : t -> target:string -> string -> unit
(** Create a symbolic link at the given path. Targets are stored verbatim
    (at most one block) and never followed by [namei]: archiver (lstat)
    semantics. *)

val readlink : t -> string -> string
(** Raises [Error] if the path is not a symlink. *)

val readdir : t -> string -> (string * int) list
(** Entries excluding ["."] and [".."]. *)

(** {1 File I/O and attributes} *)

val writev : t -> string -> offset:int -> string list -> unit
(** [writev t path ~offset pieces] writes the pieces' concatenation at
    [offset], as one operation: one [fs_op], the same write charge, and
    one NVRAM entry carrying the pieces themselves.

    Lending: a piece exactly {!Repro_block.Block.size} long that lands on
    a block boundary is not copied. The file system keeps that very
    string as the file's dirty block, logs it, and at the next
    consistency point hands it to the volume, which keeps it too (see
    {!Repro_block.Volume.write}). So a caller must lend only a string no
    [Bytes] still aliases, and must never change it afterwards; it may
    keep and read it freely, since the file system never changes a lent
    block either. A later in-place edit of that block in the same
    consistency point (a partial overwrite, truncation's tail zeroing)
    first copies it. Every other piece is copied into blocks the file
    system owns. *)

val write : t -> string -> offset:int -> string -> unit
(** [writev t path ~offset [data]]. *)

val read : t -> string -> offset:int -> len:int -> string
(** Reads past EOF are truncated; holes read as zeros. *)

val truncate : t -> string -> size:int -> unit
val getattr : t -> string -> Inode.t
val getattr_ino : t -> int -> Inode.t
val set_perms : t -> string -> perms:int -> unit
val set_owner : t -> string -> uid:int -> gid:int -> unit
val set_dos_flags : t -> string -> flags:int -> unit
val set_times : t -> string -> mtime:float -> unit
(** Not logged in NVRAM: a crash before the next CP loses the stamp. *)

val set_xattr : t -> string -> name:string -> value:string -> unit
(** Extended attributes: the multi-protocol extras (DOS 8.3 name, NT ACL)
    the NetApp dump carries as format extensions. Stored in one 4 KB block
    per file: a value that would outgrow it raises [Error] at the call,
    which after its path walk charges, changes and logs nothing. *)

val get_xattr : t -> string -> name:string -> string option
val remove_xattr : t -> string -> name:string -> unit
(** A no-op if the attribute is absent. *)

val xattrs : t -> string -> (string * string) list

val encode_xattrs : (string * string) list -> string
(** The attribute block before its zero padding (docs/FORMATS.md §4). *)

val decode_xattrs : string -> (string * string) list
(** Raises [Repro_util.Serde.Corrupt] on malformed input. *)

(** {1 Quota trees} *)

val qtree_create : t -> string -> perms:int -> int
(** Make a top-level directory that roots a new quota tree and return the
    qtree id. Files and directories created below it inherit the id — the
    paper's unit for splitting a volume into parallel logical dumps. *)

val qtree_of : t -> string -> int

val qtree_usage : t -> qtree:int -> int
(** File-data bytes currently accounted to the quota tree. *)

val qtree_limit : t -> qtree:int -> int option

val set_qtree_limit : t -> string -> limit:int option -> unit
(** Set ([Some bytes]) or remove ([None]) the byte limit of the quota tree
    containing [path]. A limit below current usage is allowed; further
    growth raises [Error]. *)

val qtree_limit_list : t -> (int * int) list
(** All (qtree id, limit) pairs — persisted in the fsinfo block. *)

(** {1 Snapshots} *)

type snap_info = { name : string; id : int; created : float; blocks : int }

val snapshot_entries : t -> Fsinfo.snap_entry list
(** The raw snapshot table (root inodes and plane assignments) — what the
    physical dump needs to synthesize the restored system's fsinfo. *)

val snapshot_create : t -> string -> unit
(** Raises [Error] if the name exists or all {!Layout.max_snapshots} slots
    are taken. Runs inside a single CP: the new plane captures exactly the
    tree the snapshot's root describes. *)

val snapshot_delete : t -> string -> unit
val snapshots : t -> snap_info list

(** {1 Read-only views}

    A view is a consistent, read-only image of a file-system tree: the
    active tree as of the last CP, or a snapshot. Logical dump reads its
    data through a view of the dump snapshot. *)

module View : sig
  type v

  val root_ino : v -> int
  val max_inodes : v -> int
  val getattr : v -> int -> Inode.t
  (** [Inode.free] for unallocated slots. *)

  val read : v -> int -> offset:int -> len:int -> string
  val file_block : v -> int -> int -> string option
  (** [file_block v ino lbn]: the stored block itself, not a copy (see
      {!Repro_block.Volume.read}); [None] for holes. *)

  val block_present : v -> int -> int -> bool
  (** Hole-map probe without reading the data. *)

  val block_address : v -> int -> int -> int option
  (** [block_address v ino lbn]: the volume block number backing a logical
      block, for layout/fragmentation analysis. [None] for holes. *)

  val readdir : v -> int -> (string * int) list
  (** By directory inode number, excluding ["."] / [".."]. *)

  val xattrs : v -> int -> (string * string) list
  val lookup : v -> string -> int option
end

val active_view : t -> View.v
(** Takes a CP first, so the view covers everything. *)

val snapshot_view : t -> string -> View.v

(** {1 Consistency checking} *)

val fsck : t -> (unit, string list) result
(** Offline-style check of the active tree: every reachable block is
    marked in plane 0 and vice versa, directory entries reference
    allocated inodes, link counts match directory entries. *)

val fsck_repair : t -> string list
(** Check and repair: the reachable set is taken as truth — leaked blocks
    are freed, reachable-but-unallocated blocks re-marked, dangling
    directory entries removed, and wrong link counts rewritten. Returns
    the actions taken (empty = nothing was wrong) and commits them with a
    consistency point. *)

(** {1 Statistics} *)

val inode_count : t -> int
(** Allocated inodes (including the root directory and metadata files). *)

(**/**)

(** The steps a path walk is made of, for the test oracle of the in-place
    walk only: charge [n] file-system ops, and visit a directory's blocks
    in order, through the buffer cache, until [f lbn block] says stop. *)
module Private : sig
  val charge_op : t -> int -> unit
  val dir_iter_blocks : t -> int -> (int -> string -> bool) -> unit
end

(** The logical dump stream format.

    Modeled on BSD dump as the paper describes it (§3): an inode-based,
    self-describing, architecture-neutral stream. The tape begins with two
    inode bitmaps (inodes in use in the dumped subtree; inodes written to
    the media), all directories precede all files, both are written in
    ascending inode order, and "each file and directory is prefixed with
    1 KB of header meta-data" including the file's hole map.

    NetApp-style extensions (DOS names, DOS bits, NT ACLs) ride in the
    header as a key/value list without breaking the base format.

    Every header is exactly {!header_size} bytes, starts with
    {!header_magic} and ends with a CRC-32 of the rest, so a restore can
    resynchronize after media corruption by scanning for the next valid
    header — the "minor tape corruption will usually affect only that
    single file" property. Data blocks follow their header raw, 4 KB each.

    Large, sparse files whose hole map does not fit in one header continue
    into [Addr] headers, exactly like BSD's TS_ADDR records. *)

val header_size : int
(** 1024. *)

val data_block_size : int
(** 4096. *)

type header =
  | Tape of {
      level : int;
      dump_date : float;
      base_date : float;  (** 0.0 for a level-0 dump *)
      label : string;  (** volume/subtree label *)
      root_ino : int;  (** inode of the dumped subtree's root directory *)
      max_inodes : int;
    }
  | Map of {
      map_kind : [ `Usage | `Dumped ];
      inodes : int;  (** bits in the map *)
      map_blocks : int;  (** 4 KB data blocks that follow *)
    }
  | File of {
      ino : int;
      inode : Repro_wafl.Inode.t;  (** block pointers zeroed: logical format *)
      xattrs : (string * string) list;
      nblocks : int;  (** logical length of the file in blocks *)
      present_prefix : string;  (** first chunk of the hole-map bitmap bytes *)
      present_total : int;  (** total bitmap bytes across continuations *)
    }
  | Addr of { ino : int; fragment : string }  (** hole-map continuation *)
  | End

val encode : header -> string
(** Exactly {!header_size} bytes. Raises [Invalid_argument] if a variable
    part (label, xattrs) overflows the header. *)

val decode : string -> header option
(** [None] if the magic or CRC is wrong — corrupt header. Raises nothing. *)

val file_header_capacity : xattrs:(string * string) list -> int
(** How many hole-map bytes fit in a [File] header alongside [xattrs]. *)

val addr_capacity : int
(** Hole-map bytes per [Addr] continuation header. *)

(** Directory block format.

    Directories are specially formatted files (paper §2). Each 4 KB block
    is self-contained: a u16 entry count followed by packed entries
    (u32 inode number, u8 name length, name bytes). Entries never span
    blocks. These are pure functions over single blocks; the file system
    walks a directory's blocks and rewrites whole blocks on change, which
    suits copy-on-write. *)

val empty_block : unit -> bytes

val entries : bytes -> (string * int) list
(** [(name, ino)] pairs in storage order. Raises [Serde.Corrupt] on a
    malformed block. *)

val find : bytes -> string -> int option

val add : bytes -> string -> int -> bytes option
(** [add block name ino] is the block with the entry appended, or [None] if
    it doesn't fit. Raises [Invalid_argument] on an oversized or empty
    name. Does not check for duplicates (the file system checks the whole
    directory first). *)

val remove : bytes -> string -> bytes option
(** The block without [name], or [None] if [name] is absent. *)

val replace : bytes -> string -> int -> bytes option
(** Point an existing entry at a new inode (rename support). *)

(** Directory block format.

    Directories are specially formatted files (paper §2). Each 4 KB block
    is self-contained: a u16 entry count followed by packed entries
    (u32 inode number, u8 name length, name bytes), and zeros after the
    last entry. Entries never span blocks.

    Readers scan a stored block (a [string]) in place and allocate nothing
    but their result. Writers edit a block the caller owns ([bytes]) in
    place: the file system gives them a block already dirty in the current
    consistency point, or a fresh copy of a clean one. Every function
    first checks the whole block: a malformed one (an entry running past
    the block) raises [Serde.Corrupt] and is left unchanged. *)

val empty_block : unit -> bytes

val entries : string -> (string * int) list
(** [(name, ino)] pairs in storage order. *)

val find : string -> string -> int option
(** The inode of the first entry named [name]. *)

val find_sub : string -> string -> pos:int -> len:int -> int
(** [find_sub block s ~pos ~len]: {!find} of the name
    [String.sub s pos len], or [-1] if there is none, without building
    the name or an option. Path walks match components where they lie in
    the path. *)

val fits : string -> string -> bool
(** Whether {!add} of [name] would fit. Raises [Invalid_argument] on an
    oversized or empty name. *)

val add : bytes -> string -> int -> bool
(** [add block name ino] appends the entry, or returns [false] (block
    unchanged) if it doesn't fit. Raises [Invalid_argument] on an
    oversized or empty name. Does not check for duplicates (the file
    system checks the whole directory first). *)

val remove : bytes -> string -> bool
(** Removes every entry named [name]; [false] (block unchanged) if there
    is none. *)

val replace : bytes -> string -> int -> bool
(** Points every entry named [name] at [ino] (rename support); [false]
    (block unchanged) if there is none. *)

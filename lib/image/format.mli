(** The image (physical) dump stream format.

    A self-identifying header, then checksummed {e extent records} — runs
    of consecutive 4 KB blocks tagged with their volume block address ("the
    block address of each block written to the backup medium [is] recorded
    so that restore can put the data back where it belongs", paper §4) —
    and a trailer carrying the fsinfo block that makes the restored volume
    mountable.

    Unlike the logical format this is deliberately {e non-portable}: it can
    only recreate a file system whose on-disk layout matches, on a volume
    at least as large (the paper's portability limitation, reproduced
    rather than fixed). *)

type kind = Full | Incremental

type header = {
  kind : kind;
  snap_name : string;  (** the snapshot this dump captures *)
  base_name : string;  (** base snapshot; "" for a full dump *)
  volume_blocks : int;
  block_count : int;  (** extent-record blocks that follow *)
  dump_date : float;
  generation : int;
}

val encode_header : header -> string

val read_header : (int -> string) -> header
(** [read_header input] where [input n] yields exactly [n] bytes. *)

(** Records after the header are framed with a one-byte tag read via
    {!read_record}. Extents come in ascending vbn order, none overlapping
    the one before. *)

type record =
  | Extent of { vbn : int; blocks : string array }
      (** 1 to {!max_extent_blocks} 4096-byte blocks for [vbn, vbn+count),
          each a string of its own. *)
  | Trailer of { fsinfo : string }  (** 4096-byte fsinfo image *)

val max_extent_blocks : int
(** 64. *)

val write_extent : (string -> unit) -> vbn:int -> string array -> unit
(** [write_extent output ~vbn blocks] writes the record for blocks
    [vbn, vbn+count), given as 1 to {!max_extent_blocks} 4 KB blocks: the
    11-byte head, carrying the CRC of the blocks, then each block as
    given, one [output] call apiece. *)

val encode_trailer : fsinfo:string -> string

val read_record : after:int -> (int -> string) -> record
(** [read_record ~after input] where [input n] yields exactly [n] bytes,
    and [after] is the last vbn of the stream's previous extent ([-1]
    before the first). An extent's blocks are each read with one
    [input 4096] call and returned as read. Raises [Serde.Corrupt],
    naming the vbn, on a bad block count, an extent that does not start
    above [after], or a checksum that does not match. *)

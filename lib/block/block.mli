(** Block constants shared by the whole stack.

    WAFL is block based, using 4 KB blocks with no fragments (paper §2);
    every layer of this reproduction moves data in whole 4 KB blocks.

    A stored block is an immutable [string]. Whoever builds one fills a
    fresh [bytes] (often from {!zero}) and hands it over with
    [Bytes.unsafe_to_string], touching the [bytes] no more; from then on
    the block may be shared freely, and whoever wants to change it edits a
    copy. *)

val size : int
(** 4096 bytes. *)

type addr = int
(** A volume block number (vbn). The volume presents a flat [0, nblocks)
    address space assembled from its RAID groups' data disks. *)

val zero : unit -> bytes
(** A fresh all-zero block, to build a new block in. *)

val zeros : string
(** The all-zero block, shared: what never-written blocks and holes read
    as. *)

val is_zero : string -> bool

val xor_into : bytes -> string -> unit
(** [xor_into dst src] sets [dst] to [dst xor src] over [dst]'s length:
    the RAID parity kernel, in C (block_stubs.c). Raises
    [Invalid_argument] if [src] is shorter than [dst]. *)

val check : string -> unit
(** Raises [Invalid_argument] unless the buffer is exactly one block. *)

val blocks_for : int -> int
(** [blocks_for len] is the number of blocks needed to hold [len] bytes. *)

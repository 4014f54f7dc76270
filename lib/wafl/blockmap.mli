(** The block allocation map: 32 bit planes, one word per volume block.

    "WAFL's free block data structure contains 32 bits per block ... The
    live file system as well as each snapshot is allocated a bit plane; a
    block is free only when it is not marked as belonging to either the
    live file system or any snapshot" (paper §2.1).

    Plane 0 is the active file system; planes 1–31 are assigned to
    snapshots. The map is held in memory while mounted and serialized into
    the block-map file (u32 little-endian word per vbn, 1024 words per
    block) at every consistency point.

    The incremental image dump of §4.1 is pure plane algebra, provided
    here: blocks in the new snapshot's plane but not the base's ([B \ A]),
    and {!block_state} is exactly the paper's Table 1. *)

type t

val create : nblocks:int -> t
val nplanes : int

(** {1 Active plane (plane 0)} *)

val mark_allocated : t -> int -> unit
val mark_free : t -> int -> unit
val active_used : t -> int
val active_plane : t -> Repro_util.Bitmap.t
(** A copy; mutating it does not affect the map. *)

val find_free : t -> ?avoid:Repro_util.Bitmap.t -> start:int -> unit -> int option
(** First vbn at or after [start] (wrapping once) whose 32-bit word is zero
    and which is not set in [avoid]. *)

(** {1 Snapshot planes} *)

val is_free_block : t -> int -> bool
(** word = 0: in neither the live file system nor any snapshot. *)

val in_plane : t -> plane:int -> int -> bool
val plane_copy : t -> int -> Repro_util.Bitmap.t
val plane_used : t -> int -> int

val free_count : t -> int
(** Blocks whose word is zero: [nblocks] less the blocks in the union of
    all 32 planes, counted a plane word at a time. *)

val capture_snapshot : t -> plane:int -> unit
(** Copy plane 0 into [plane]: the "updating the block allocation
    information" step of snapshot creation. *)

val clear_plane : t -> int -> unit
(** Snapshot deletion: blocks held only by this snapshot become free. *)

val incremental_blocks : t -> base:int -> target:int -> Repro_util.Bitmap.t
(** Blocks to include in an incremental image dump based on plane [base]
    whose new snapshot is plane [target]: [target \ base]. *)

type block_state =
  | Not_in_either  (** 0,0 — not in either snapshot *)
  | Newly_written  (** 0,1 — include in incremental *)
  | Deleted  (** 1,0 — deleted, no need to include *)
  | Unchanged  (** 1,1 — needed, but not changed since full dump *)

val block_state : in_base:bool -> in_target:bool -> block_state
(** Table 1 of the paper. *)

val state_included : block_state -> bool
(** Whether the state's block belongs in the incremental dump (true only
    for [Newly_written]). *)

(** {1 Serialization into the block-map file} *)

val file_blocks : nblocks:int -> int
(** Size of the block-map file in 4 KB blocks. *)

val encode_file_block : t -> int -> string
(** [encode_file_block t lbn] is the [lbn]-th 4 KB block of the file. *)

val load_file_block : t -> int -> string -> unit

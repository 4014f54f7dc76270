(** A volume: a flat 4 KB-block address space over one or more RAID-4
    groups, with whole-array service accounting.

    The paper's filer organizes 53 disks into two volumes ("home": 3 raid
    groups of 31 disks; "rlse": 2 groups of 22). A volume owns one
    {!Repro_sim.Resource.t}; each member disk charges its service time
    scaled by [1 / total_disks], so resource utilization reads as
    whole-array busy fraction. This matches the fluid pipeline model under
    dump-style read-ahead, which keeps all spindles busy when the workload
    allows (paper §3: NetApp's dump generates its own read-ahead policy). *)

type geometry = {
  groups : int;
  disks_per_group : int;  (** including one parity disk per group *)
  blocks_per_disk : int;
  disk : Disk.params;
}

val geometry :
  ?groups:int -> ?disks_per_group:int -> ?disk:Disk.params -> blocks_per_disk:int -> unit ->
  geometry
(** Defaults: 1 group, 8 disks per group, {!Disk.default_params}. *)

val small_geometry : data_blocks:int -> geometry
(** A convenient single-group geometry with at least [data_blocks] data
    blocks; used throughout the tests. *)

type t

val create : label:string -> geometry -> t
val geometry_of : t -> geometry
val label : t -> string
val size_blocks : t -> int
(** Number of data blocks (vbns). *)

val resource : t -> Repro_sim.Resource.t
val raid_groups : t -> Raid.t array

(** {1 Block ownership}

    Stored blocks are immutable strings (see {!Block}). A writer hands its
    block over: the volume keeps the very string, and the writer must not
    keep a [bytes] alias of it. A reader gets the stored string back, not a
    copy: it may keep it as long as it likes — a later write to the same
    address stores a different string and leaves it alone — and must copy
    it before changing anything. *)

val read : t -> Block.addr -> string
val write : t -> Block.addr -> string -> unit

val read_extent : t -> Block.addr -> int -> string array
(** [read_extent t vbn n] reads the [n] consecutive blocks from [vbn], in
    order. *)

val write_batch : ?len:int -> t -> Block.addr array -> string array -> unit
(** [write_batch t vbns blocks] writes [blocks.(i)] at [vbns.(i)] for the
    first [len] entries (default: all of [vbns]). The vbns must be
    strictly ascending and inside the volume, and every block 4096 bytes:
    anything else raises [Invalid_argument] before any disk is written.
    Runs of consecutive vbns covering complete RAID stripes are written
    with {!Raid.write_stripe} (one I/O per disk, parity in one pass);
    stragglers fall back to read-modify-write. This is the payoff of
    write-anywhere allocation and the [write-allocation] ablation point. *)

val fail_disk : t -> group:int -> disk:int -> unit
val rebuild_disk : t -> group:int -> disk:int -> unit
val parity_consistent : t -> bool

(** {1 Accounting} *)

val busy_seconds : t -> float
(** Whole-array busy seconds (sum over disks divided by disk count). *)

val bytes_moved : t -> int
val seeks : t -> int

val media_repairs : t -> int
(** Blocks repaired from parity after media errors, summed over the RAID
    groups (see {!Raid.media_repairs}). *)

val reset_stats : t -> unit

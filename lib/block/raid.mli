(** A RAID-4 group: [n-1] data disks plus one dedicated parity disk, striped
    one block deep.

    WAFL sits on software RAID-4; image dump/restore reads and writes
    "directly through the internal software RAID subsystem" (paper §4.1).
    The group exposes a flat data-block space; parity is maintained either
    by read-modify-write on single-block writes or in one pass by
    {!write_stripe}, which is what WAFL's write-anywhere allocator exists to
    enable (it is also one of the ablations in DESIGN.md §5).

    Addressing: group block number [gbn] maps to stripe [gbn / (n-1)] on
    data disk [gbn mod (n-1)], so consecutive gbns round-robin across data
    disks and advance sequentially on each. *)

type t

val create :
  ?resource:Repro_sim.Resource.t ->
  ?service_scale:float ->
  label:string ->
  ndisks:int ->
  blocks_per_disk:int ->
  Disk.params ->
  t
(** [ndisks] includes the parity disk; at least 3. [Disk.params.blocks] is
    overridden by [blocks_per_disk]. *)

val data_blocks : t -> int
val ndisks : t -> int
val data_disks : t -> int
val disks : t -> Disk.t array
(** Index [ndisks - 1] is the parity disk. *)

val read : t -> int -> string
(** The stored block itself, not a copy (see {!Disk.read}): the caller
    may keep it and must copy it before changing anything. Reads via
    parity reconstruction if the data disk has failed. A
    single-block media error ([Repro_fault.Fault.Media_error]) is repaired
    in place: the block is reconstructed from parity, rewritten to the disk
    (remapping the bad sector), counted in {!media_repairs}, and served.
    Raises [Disk.Disk_failed] if two disks are down, and [Media_error]
    itself only on a double fault (a media error with another disk already
    missing). *)

val write : t -> int -> string -> unit
(** Takes ownership of the block: the data disk stores it as given (see
    {!Disk.write}). Read-modify-write parity update (up to 4 disk I/Os).
    Media errors on the pre-read are repaired as in {!read}; a drive dying
    mid-operation falls back to the degraded write path. *)

val media_repairs : t -> int
(** Blocks repaired from parity after a media error. *)

val write_stripe : t -> int -> string array -> unit
(** [write_stripe t stripe data] writes all [n-1] data blocks of a stripe
    and its parity in [n] disk I/Os, storing each block as given.
    [Array.length data] must be [n-1]. *)

val stripe_of_gbn : t -> int -> int * int
(** [(stripe, data_disk_index)]. *)

val fail_disk : t -> int -> unit
val rebuild_disk : t -> int -> unit
(** Revive disk [i] and reconstruct its contents from the others. *)

val parity_consistent : t -> bool
(** Full scrub: every stripe's parity equals the xor of its data blocks. *)

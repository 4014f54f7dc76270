(** A simulated disk drive.

    Data is held in memory, one immutable 4 KB string per written block.
    Each access is charged a service time from a classic two-parameter
    model: a positioning cost (average seek + rotational latency) whenever
    the access is not contiguous with the previous one, plus a
    media-transfer cost proportional to the bytes moved. This is the one
    property the paper's analysis rests on: sequential block streams run
    at device speed while inode-order file reads pay a seek per
    discontiguity.

    Service time is charged to an optional shared {!Repro_sim.Resource.t}
    (scaled by [service_scale], so a volume can normalize per-disk busy time
    into whole-array utilization) and to per-disk counters. *)

type params = {
  blocks : int;  (** capacity in 4 KB blocks *)
  seek_ms : float;
      (** positioning cost for a far discontiguous access; jumps of at most
          128 blocks pay a fixed 2.5 ms near-settle instead *)
  transfer_mb_s : float;  (** sustained media rate, decimal MB/s *)
}

val default_params : blocks:int -> params
(** 1998-era FC disk: 9 ms positioning, 10 MB/s media rate. *)

type t

val create :
  ?resource:Repro_sim.Resource.t -> ?service_scale:float -> label:string -> params -> t

val read : t -> int -> string
(** [read d dbn] is the block stored at [dbn] ({!Block.zeros} if never
    written): the very string the last {!write} there was given, not a
    copy, so a caller may keep it — it stays the same bytes even after the
    address is rewritten — and must copy it before changing anything.
    Raises [Disk_failed] if the disk has {!fail}ed — a device fault the
    RAID layer handles — and [Invalid_argument] only on an out-of-range
    [dbn], which is a programmer error. An armed fault plane
    ({!Repro_fault.Fault}) may additionally raise
    [Repro_fault.Fault.Media_error] (latent sector error) or
    [Repro_fault.Fault.Transient] (timeout); a plane-scheduled drive death
    fails the disk and raises [Disk_failed]. *)

val write : t -> int -> string -> unit
(** [write d dbn b] stores [b] itself at [dbn], without copying: the
    writer hands the block over and keeps no [bytes] alias of it (see
    {!Block}). Same failure contract as {!read}: [Disk_failed] on a failed
    drive, [Invalid_argument] on a bad address or a buffer that is not one
    block. A successful write clears any injected latent sector error at
    that address (the RAID repair path). *)

exception Disk_failed of string

val fail : t -> unit
(** Simulate a total drive failure: subsequent {!read}/{!write} raise
    [Disk_failed]. Used by the RAID reconstruction tests. *)

val failed : t -> bool

val revive : t -> unit
(** Bring a replacement drive online in the same slot, with all blocks
    zeroed (the RAID layer rebuilds contents). *)

(** {1 Accounting} *)

val busy_seconds : t -> float
val bytes_moved : t -> int
val seeks : t -> int
val reset_stats : t -> unit

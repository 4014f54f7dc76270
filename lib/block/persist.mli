(** Volume serialization.

    Writes a volume's geometry and non-zero data blocks into a
    {!Repro_util.Serde.writer} (sparse: zero blocks are skipped and
    reappear as zeros on load), and rebuilds an equivalent volume — parity
    recomputed by the RAID layer — on read. This is what lets the
    [backupctl] tool keep simulated filers in ordinary host files between
    invocations. *)

val max_volume_blocks : int
(** The largest volume RVOL1 holds, counted as groups x disks per group x
    blocks per disk, parity disks included: [2^22] blocks (16 GiB). *)

val write : Repro_util.Serde.writer -> Volume.t -> unit
(** Blocks are written in ascending vbn order. Raises [Invalid_argument]
    on a volume above {!max_volume_blocks}. *)

val read : Repro_util.Serde.reader -> Volume.t
(** Raises [Serde.Corrupt] on malformed input, including a geometry
    {!Volume.geometry} refuses or one above {!max_volume_blocks} (refused
    before the volume is allocated), a seek time or transfer rate that is
    not finite (or is negative, or a rate of zero), a block number outside
    the geometry and block numbers that are not strictly ascending. *)

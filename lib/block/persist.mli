(** Volume serialization.

    Writes a volume's geometry and non-zero data blocks into a
    {!Repro_util.Serde.writer} (sparse: zero blocks are skipped and
    reappear as zeros on load), and rebuilds an equivalent volume — parity
    recomputed by the RAID layer — on read. This is what lets the
    [backupctl] tool keep simulated filers in ordinary host files between
    invocations. *)

val write : Repro_util.Serde.writer -> Volume.t -> unit
val read : Repro_util.Serde.reader -> Volume.t
(** Raises [Serde.Corrupt] on malformed input, including a geometry
    {!Volume.geometry} refuses, a seek time or transfer rate that is not
    finite (or is negative, or a rate of zero) and a block number outside
    the geometry. *)

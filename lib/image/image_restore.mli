(** Physical restore: put every block back where it belongs.

    Writes blocks straight to the volume through the RAID layer — no file
    system, no NVRAM — then installs the stream's fsinfo redundantly, so
    mounting the volume yields the dumped system, snapshots and all.

    Restoring an incremental requires that the target volume currently
    holds the stream's base snapshot (the chain invariant); anything else
    is refused. Any checksum failure aborts the restore: a physical
    restore is all-or-nothing, the flip side of the paper's observation
    that single-file restore "is not very practical" under this scheme. *)

exception Error of string

type result = {
  kind : Format.kind;
  snap_name : string;
  blocks_restored : int;
  bytes_read : int;
}

val apply :
  ?cpu:Repro_sim.Resource.t ->
  ?observe:(string -> (unit -> unit) -> unit) ->
  volume:Repro_block.Volume.t ->
  Repro_tape.Tapeio.source ->
  result
(** [observe] wraps "restoring blocks". Raises {!Error} on a damaged
    stream, a too-small volume, or a broken incremental chain. *)

val verify : Repro_tape.Tapeio.source -> (int, string list) Stdlib.result
(** Checksum the whole stream without writing anything; [Ok blocks] or the
    list of problems found. *)

(** The physical (block-based) image dump of paper §4.1.

    Uses the file system {e only} to read the block-map bit planes and the
    snapshot table; data moves straight off the RAID layer in ascending
    block order (sequential, device-speed reads), bypassing the file
    system, its cache, and NVRAM.

    A full dump based on snapshot [S] writes every block belonging to [S]
    or to any older snapshot — so "the system you restore looks just like
    the system you dumped, snapshots and all". An incremental based on
    snapshot [A] with new snapshot [B] writes exactly the plane difference
    [B \ A] (Table 1): both snapshots must still exist, which is also what
    keeps the blocks shared with [A] immutable in between.

    Snapshots created between [A] and [B] are preserved only when their
    plane is fully covered by [A ∪ B]; otherwise they are dropped from the
    restored system's snapshot table (and reported). *)

type result = {
  kind : Format.kind;
  blocks_dumped : int;
  bytes_written : int;
  snapshots_included : string list;
  snapshots_dropped : string list;
}

val full :
  ?cpu:Repro_sim.Resource.t ->
  ?part:int * int ->
  ?observe:(string -> (unit -> unit) -> unit) ->
  fs:Repro_wafl.Fs.t ->
  snapshot:string ->
  sink:Repro_tape.Tapeio.sink ->
  unit ->
  result
(** Raises [Repro_wafl.Fs.Error] if the snapshot does not exist. Closes
    the sink. [observe] wraps "dumping blocks".

    [part] is [(i, n)]: emit part [i] of an [n]-way partitioned dump
    carrying the selected blocks in the contiguous vbn range
    [i*nb/n, (i+1)*nb/n). Each part is a complete stream (header, extents,
    trailer with an identical synthesized fsinfo), so parts restore
    independently and in any order; applying all [n] reproduces exactly
    the single-stream result. Default [(0, 1)]. *)

val incremental :
  ?cpu:Repro_sim.Resource.t ->
  ?part:int * int ->
  ?observe:(string -> (unit -> unit) -> unit) ->
  fs:Repro_wafl.Fs.t ->
  base:string ->
  snapshot:string ->
  sink:Repro_tape.Tapeio.sink ->
  unit ->
  result

val raw :
  ?cpu:Repro_sim.Resource.t ->
  ?observe:(string -> (unit -> unit) -> unit) ->
  volume:Repro_block.Volume.t ->
  sink:Repro_tape.Tapeio.sink ->
  unit ->
  result
(** The dd baseline: "in its simplest form, physical backup is the
    movement of all data from one raw device to another" (paper §4) —
    every block, allocated or not, with no file-system interpretation at
    all. The stream restores with the ordinary {!Image_restore.apply}.
    Exists to quantify why interpreting the free-block information is "a
    straightforward extension": the smart dump moves only used blocks and
    gains incrementals, for the price of reading the block map. The raw
    dump also captures whatever inconsistent in-flight state the volume
    holds — use only on a quiesced file system. *)

(** Scheduled, cascading replication with disaster recovery — the
    paper's §6 remote-mirroring application grown into a SnapMirror-style
    subsystem.

    A replication {e topology} is a tree of named nodes rooted at the
    primary: fan-out (A→B, A→C) and chains (A→B→C) compose freely. Each
    edge ships plane-difference image incrementals ({!Repro_image})
    through a real {!Repro_net.Session} over a {!Repro_net.Link} — CRC
    framing, sliding window, retransmissions and all — on a per-edge
    schedule driven by the topology's simulated clock. Every replica
    carries a persisted state machine:

    {v uninitialized → syncing → in-sync → diverged → resyncing v}

    and the whole topology round-trips through a versioned on-disk
    format ([RPL1], see docs/FORMATS.md).

    Robustness is the point. Edges are driven through the fault plane
    (the link's fault device is the replica's name; see below): a
    partition mid-transfer kills the in-flight snapshot but leaves the
    replica consistent at its last completed snapshot, from which the
    next scheduled run resumes. {!promote} re-roots the tree at a
    surviving replica, records the divergence boundary, and reports the
    drill's RPO (snapshot lag at failure) and RTO (simulated time to a
    promoted, fsck-clean mount). {!resync} reconciles a diverged node
    with its new upstream by computing the newest common snapshot and
    re-shipping only the difference — falling back to a full transfer
    when the boundary is gone ({!Snapshot_gap}).

    Fault addressing: a replica's incoming link is labelled with the
    replica's name (so [net-partition:B:40] partitions the edge into
    [B]), and its volume is labelled likewise (so disk faults address
    [B.rg0.d0]). The label survives {!promote}'s edge reversal.

    Everything runs on simulated time; identical seeds give identical
    transfers, journals and replica bytes (the determinism property
    test/test_repl.ml pins). *)

module Fs = Repro_wafl.Fs

exception Error of string
(** Topology misuse: unknown node, promoting the primary, syncing a
    diverged replica without {!resync}, … *)

exception Snapshot_gap of { node : string; base : string }
(** The snapshot a catch-up would use as its incremental base no longer
    exists on the upstream node. {!resync} recovers by falling back to a
    full transfer; {!sync} surfaces it. *)

type state = Uninitialized | Syncing | In_sync | Diverged | Resyncing

val state_name : state -> string

type transfer = {
  xfer_src : string;
  xfer_dst : string;
  xfer_snapshot : string;
  xfer_kind : [ `Full | `Incremental ];
  xfer_payload_bytes : int;  (** image-stream bytes on the wire *)
  xfer_wire_s : float;  (** session open-to-close simulated seconds *)
  xfer_apply_s : float;  (** destination volume busy seconds *)
  xfer_retransmits : int;
}

type promotion = {
  promoted : string;
  rpo_s : float;
      (** recovery point objective, measured: simulated seconds between
          the promoted replica's last replicated checkpoint and the
          moment of promotion *)
  rto_s : float;
      (** recovery time objective, measured: simulated seconds to a
          fresh, fsck-clean writable mount of the promoted volume *)
  divergence_base : string option;
      (** the checkpoint writes diverge from; recorded on the node *)
}

type status = {
  st_name : string;
  st_role : [ `Primary | `Replica ];
  st_state : state;
  st_last : string option;  (** last replicated checkpoint *)
  st_lag_s : float;
  st_upstream : string option;
}

type t

(** {1 Building a topology} *)

val create : ?clock:Repro_sim.Clock.t -> primary:string -> Fs.t -> t
(** A topology of one node: the live file system, writable, in-sync
    with itself. The clock (fresh unless shared) orders checkpoints and
    drives the per-edge schedule. *)

val add_replica :
  t ->
  ?params:Repro_net.Link.params ->
  ?interval_s:float ->
  upstream:string ->
  name:string ->
  unit ->
  unit
(** Add an empty replica of [upstream] reached over a new link labelled
    [name]. The replica's volume clones the upstream's geometry and is
    labelled [name]. [interval_s] puts the edge on the schedule (first
    due one interval from now); 0 (the default) means manual-only.
    Raises {!Error} on a duplicate name, an unknown upstream, or an
    interval that is negative or not finite. *)

val clock : t -> Repro_sim.Clock.t
val primary : t -> string

val fs : t -> name:string -> Fs.t
(** The node's file system, mounting a replica on demand. Replica
    mounts are read-for-verification; only the primary is writable by
    convention. *)

val volume : t -> name:string -> Repro_block.Volume.t

(** {1 Replicating} *)

val checkpoint : t -> string
(** Snapshot the primary ([repl.N], monotonic across promotions) and
    record its creation time; this is the unit replication ships. When
    every snapshot slot is taken, the oldest checkpoint older than each
    replica's last one (cascade replicas included) is deleted first;
    if none is, [Fs.Error] is raised as for any full snapshot table. *)

val sync : t -> name:string -> transfer list
(** Catch [name] up from its upstream: a full transfer of the newest
    checkpoint when uninitialized, otherwise one incremental per
    missing checkpoint, oldest first, so an interrupted catch-up
    resumes from the last completed snapshot. Raises {!Error} on a
    diverged node (use {!resync}), {!Snapshot_gap} when the incremental
    base is gone, and lets fault-plane exceptions
    ({!Repro_fault.Fault.Partitioned}, {!Repro_fault.Fault.Transient},
    …) escape — the replica stays consistent at its last completed
    snapshot. *)

val run_until : t -> float -> (string * exn) list
(** Drive the schedule to an absolute simulated time: fire every due
    edge in (due-time, name) order — an edge leaving the primary takes
    a fresh {!checkpoint} first — and advance the clock. A failing edge
    (partition, dead drive, divergence) is recorded, its schedule slot
    advances, and the storm moves on; the returned [(replica, exn)]
    list is what broke, in firing order. An edge whose due time no
    longer advances (an interval below the float spacing of the clock
    there) fires once and is then reported as an {!Error} failure
    instead of firing again. *)

val lag_s : t -> name:string -> float
(** Replication lag: age of the newest primary checkpoint the node does
    {e not} yet hold (0 when in-sync; the checkpoint's age when the
    node holds nothing). Also exported as the [repl.lag_s.<name>]
    gauge/series on the obs plane after every transfer. *)

(** {1 Disaster recovery} *)

val promote : t -> name:string -> promotion
(** Fail over to [name]: re-root the tree there (edges on the old
    root's path reverse in place, keeping their links, labels and
    schedules), mark the old primary diverged, record the divergence
    boundary, and mount + fsck the promoted volume. The returned
    {!promotion} carries the drill's measured RPO and RTO, also pushed
    to the obs plane ([repl.rpo_s] / [repl.rto_s] gauges). Raises
    {!Error} if [name] is already primary, holds no checkpoint, or its
    volume does not mount clean. *)

val resync : t -> name:string -> transfer list
(** Reconcile [name] with its (possibly new) upstream after divergence
    or partition: find the newest checkpoint both sides still hold,
    rewind the node's replication point to it — diverged writes never
    touched its blocks, copy-on-write keeps snapshot planes immutable —
    and ship only the difference. When no common checkpoint survives,
    fall back to a full transfer. Ends in-sync with divergence
    cleared. *)

val verify : t -> name:string -> (unit, string list) result
(** The any-point-in-time gate: walk every checkpoint the node holds
    and compare it inode-by-inode, byte-by-byte against the same
    checkpoint on the current primary. A checkpoint older than all the
    primary holds was retired there ({!checkpoint}) and is skipped.
    [Ok ()] or the differences (capped at 50). *)

val status : t -> status list

(** {1 Persistence} ([RPL1]) *)

val save : Repro_util.Serde.writer -> t -> unit
(** Replica volumes, links, schedules, states and checkpoint times.
    The primary-at-creation node's file system is externally owned (the
    engine store holds it) and is not serialized. *)

val load : Repro_util.Serde.reader -> primary_fs:Fs.t -> t
(** Raises [Serde.Corrupt] on bad magic, an unknown version, or a
    schedule interval that is negative or not finite. *)

(** Seeded, deterministic fault injection.

    A fault {e plan} is a declarative list of {!spec}s — latent sector
    errors, transient read timeouts, tape soft/hard errors, drive death,
    NVRAM loss, torn fsinfo writes, packet loss, link flaps and
    partitions — compiled into a {!plane} and armed ({!with_armed})
    against hook points threaded through the device layers ({!Disk},
    {!Raid}, {!Tape}, {!Tapeio}, {!Nvram}, the fsinfo write path, and the
    network links of {!Repro_net}).
    Devices call the [on_*] hooks on every I/O and consult the plane
    armed on their own domain ({!Repro_util.Ambient}), so a drill on one
    domain never touches another domain's devices. When no plane is
    armed on any domain a hook is a single load-and-branch, so the plane
    costs nothing on the hot path (see the [faults] bench target).

    Every injected event — and every repair, retry, and degradation the
    system performs in response — is appended to the plane's {e journal},
    giving tests something concrete to assert against. Planes are seeded
    ({!plan}'s [seed]), and the simulation is deterministic, so identical
    plans produce identical journals.

    Fault addressing is by device label: disks are ["<vol>.rg<g>.d<i>"]
    (see {!Repro_block.Raid.create}), tape drives are the stacker label,
    volumes (for torn fsinfo writes) the volume label, NVRAM defaults to
    ["nvram"], network links are the link label (["link:<host>"] for the
    engine's remote tape servers). *)

(** One declarative fault. [device] is always a device label. *)
type spec =
  | Latent_sector_error of { device : string; addr : int }
      (** Block [addr] of disk [device] is unreadable ({!Media_error} on
          read) until it is rewritten, which clears the error — the repair
          path RAID uses. *)
  | Flaky_reads of { device : string; failures : int; prob : float }
      (** Each read of [device] raises {!Transient} with probability
          [prob] (drawn from the plane's seeded PRNG), at most [failures]
          times. Models transient timeouts an engine-level retry
          absorbs. *)
  | Disk_death of { device : string; after_ios : int }
      (** Disk [device] fails hard after [after_ios] further I/Os
          (reads + writes). The disk enters its own failed state, so RAID
          serves it degraded from then on. *)
  | Tape_soft_errors of {
      device : string;
      op : [ `Read | `Write ];
      failures : int;
    }
      (** The next [failures] matching operations on drive [device] raise
          {!Transient}: recoverable soft errors. The drive retries reads
          internally ({!Repro_tape.Tapeio}); writes surface to the
          engine's stream-level retry. *)
  | Tape_hard_error of { device : string; record : int }
      (** Reading media item [record] (0-based tape position) on drive
          [device] raises {!Media_error}: an unrecoverable spot of bad
          media. Sticky — the record stays unreadable. *)
  | Tape_drive_death of { device : string; after_records : int }
      (** Drive [device] dies after [after_records] further record
          operations; every later operation raises {!Drive_dead} until
          {!revive}. *)
  | Nvram_loss of { device : string; after_ops : int }
      (** The NVRAM loses its contents (and enters the sticky failed
          state) after [after_ops] further logged operations. *)
  | Torn_fsinfo_write of { device : string }
      (** The next {e primary} fsinfo write on volume [device] is torn:
          only the first half of the block reaches the media. One-shot.
          Recoverable via the redundant copy. *)
  | Packet_loss of { device : string; losses : int; prob : float }
      (** Each frame sent on link [device] is dropped with probability
          [prob] (drawn from the plane's seeded PRNG), at most [losses]
          times. The transport's retransmission absorbs these
          ({!Repro_net.Session}); exhausting its retransmit budget
          surfaces {!Transient} to the engine-level retry. *)
  | Link_flap of { device : string; after_frames : int; down_frames : int }
      (** After [after_frames] further frame sends on link [device], the
          link goes down for the next [down_frames] sends (all dropped),
          then comes back. One-shot — a burst loss the transport rides
          out. *)
  | Link_partition of { device : string; after_frames : int }
      (** After [after_frames] further frame sends, link [device]
          partitions hard: that send and every later one raises
          {!Partitioned} until {!revive} heals the link. The network
          analogue of {!Tape_drive_death}. *)

type plane
(** A compiled plan plus its journal and counters. *)

exception Invalid_spec of string
(** A spec that could never fire, with the reason. *)

val plan : ?seed:int -> spec list -> plane
(** Compile a plan. [seed] (default 0) drives the probabilistic specs.
    Raises {!Invalid_spec} on a spec that could never fire — a
    probability that is NaN or outside (0, 1], a failure, loss or
    down-frame count below 1, a negative address, record or countdown
    (except a {!Link_flap}'s, which then starts at once) — so a typo'd
    drill fails at plan time, not by silently injecting nothing. *)

(** {1 Arming}

    At most one plane is armed per domain; hooks consult the plane armed
    on the domain they run on. *)

val with_armed : plane -> (unit -> 'a) -> 'a
(** Run a thunk with the plane armed on the calling domain, restoring
    that domain's previously armed plane afterwards (also on
    exception). *)

(** {1 Failures raised by hooks} *)

exception Media_error of { device : string; addr : int }
(** A single unreadable block or record: the datum at [addr] is lost but
    the device lives. RAID repairs these from parity; logical dump
    degrades; image dump fails fast. *)

exception Transient of { device : string; what : string }
(** A recoverable timeout; retrying the operation may succeed. *)

exception Drive_dead of string
(** The device died mid-operation and stays dead until {!revive}d (tape
    drives) or the disk is rebuilt (disks, which convert this into
    [Disk.Disk_failed]). *)

exception Partitioned of string
(** Link [device] is partitioned: nothing crosses it until {!revive}.
    The engine treats this like {!Drive_dead} — the in-flight part dies,
    the drive pool shrinks, and [backup ~resume:true] re-dumps only the
    unfinished parts once the link heals. *)

(** {1 Hooks} (called by the device layers; no-ops when disarmed) *)

val on_disk_read : device:string -> addr:int -> unit
val on_disk_write : device:string -> addr:int -> unit
(** A successful write to a latent-sector-error address clears the
    error (journalled as [lse-cleared]). *)

val on_tape_read : device:string -> record:int -> unit
val on_tape_write : device:string -> record:int -> unit

val on_nvram_log : device:string -> [ `Ok | `Lost ]
(** [`Lost] at most once per [Nvram_loss] spec: the log's contents are
    gone and the caller must enter its failed state. *)

val on_fsinfo_write : device:string -> primary:bool -> [ `Ok | `Torn ]
(** [`Torn] instructs the file system to write only the first half of
    the fsinfo block (the tail stays whatever was there before). *)

val on_link_send : device:string -> frame:int -> [ `Ok | `Lost ]
(** Called by the network transport for every frame committed to link
    [device] (control and data, retransmissions included); [frame] is the
    link's cumulative send count. [`Lost] means the frame vanished —
    the sender's retransmission timer must recover it. Raises
    {!Partitioned} when a {!Link_partition} has triggered. *)

val revive : plane -> device:string -> unit
(** Operator intervention: bring a dead tape drive back, or heal a
    partitioned link (journalled). *)

val dead : plane -> device:string -> bool

val partitioned : plane -> device:string -> bool

(** {1 Response notes} (called by the layers that survive faults) *)

val note_repair : device:string -> addr:int -> unit
(** RAID repaired a media error at [addr] by reconstruction + rewrite. *)

val note_retry :
  device:string -> what:string -> attempt:int -> delay_s:float -> int
(** Returns the journal seq of the retry event (-1 when disarmed), so
    the retrying layer can stamp it onto its attempt span — the
    trace-side half of the fault/trace correlation. *)

val note_skip : device:string -> addr:int -> what:string -> unit
(** A degradation: e.g. logical dump skipped unreadable inode [addr]. *)

val note_retransmit : device:string -> frame:int -> int
(** The transport retransmitted frame [frame] on link [device]. Returns
    the journal seq (-1 when disarmed), like {!note_retry}. *)

(** {1 Journal} *)

type event = {
  seq : int;
  kind : string;
      (** [lse], [transient], [disk-dead], [tape-soft], [tape-hard],
          [tape-dead], [nvram-loss], [torn-fsinfo], [net-loss],
          [net-flap], [net-partition], [lse-cleared], [repair], [retry],
          [retransmit], [skip], [revive] *)
  device : string;
  addr : int;  (** block/record index, attempt number, or -1 *)
  detail : string;
  span : int;
      (** id of the {!Repro_obs.Obs} span open when the event was
          journalled (0 when no obs plane was recording) *)
  injected : bool;  (** an injected fault, vs. a response note *)
}

val events : plane -> event list
(** In injection order. *)

val injected : plane -> int
(** Count of injected faults (not repairs/retries/notes). *)

val repairs : plane -> int
val retries : plane -> int
val skips : plane -> int

val journal_lines : plane -> string list
(** One canonical line per event — equal lists iff equal journals, the
    reproducibility tests' currency. *)

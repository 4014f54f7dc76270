(** The backup engine: the library's front door.

    Owns a file system, a set of tape stackers, the dumpdates database and
    the catalog, and exposes one-call backup and restore under either
    strategy. Snapshot handling follows the paper's practice: every backup
    reads from a snapshot taken for the purpose; logical dumps delete it
    afterwards, physical dumps retain it as the base for the next
    incremental (retiring the previous base once it is no longer needed).

    Multiple backups stack onto one stacker as successive tape streams;
    the catalog records drive and stream indices so restores find their
    media without operator memory.

    {b Resilience.} Each backup attempt runs under a bounded
    exponential-backoff retry ({!Repro_fault.Retry}) absorbing transient
    device errors, with backoff charged to the engine's simulated [clock].
    A job may be split into [parts] independent tape streams; progress is
    checkpointed in the catalog per completed part, so a job killed by a
    hard fault (dead drive, failed disk) resumes with
    [backup ~resume:true], re-dumping only the unfinished parts from the
    {e same} snapshot. A stream the fault cut off mid-write is sealed with
    a filemark so stream addressing stays consistent.

    {b Concurrency.} With [~drives] a multi-part backup schedules its
    parts concurrently across a pool of stackers ({!Scheduler}): real tape
    content per drive is identical to running those parts serially on that
    drive, while elapsed simulated time reflects max-min fair sharing of
    the source disks between in-flight parts — logical dump's inode-order
    reads saturate the array, image dump's sequential reads scale with the
    drives (Tables 4/5). Restores replay each part on the drive that wrote
    it, up to [~concurrency] at a time. {!last_stats} reports the
    schedule's makespan and per-drive busy time. *)

type t

type io_model = {
  logical_read_bytes_s : float;
      (** aggregate array read bandwidth available to a logical dump's
          inode-order reads (the paper's disk-saturation bottleneck) *)
  image_read_bytes_s : float;
      (** same for an image dump's sequential block reads *)
  logical_write_bytes_s : float;  (** restore-side logical write bandwidth *)
  image_write_bytes_s : float;  (** restore-side image write bandwidth *)
  restore_create_latency_s : float;  (** per-file creation cost on restore *)
}
(** The modeled half of a part's demand vector: what the shared source (or
    target) disks can deliver to each access pattern. The measured half —
    tape transfer and link time — comes from {!Repro_sim.Resource}
    busy deltas. *)

val io_model : io_model
(** Tuned to the paper's Table 4/5 shape over ~8.5 MB/s DLT7000-class
    drives: logical saturates near 2.75 drives' bandwidth, image feeds four
    drives comfortably. *)

val create :
  ?clock:Repro_sim.Clock.t ->
  fs:Repro_wafl.Fs.t ->
  libraries:Repro_tape.Library.t list ->
  unit ->
  t
(** [clock] receives the retry backoff delays ({!Repro_fault.Retry.run},
    a fixed budget); without one, backoff costs no simulated time. The
    modeled disk demand follows {!io_model}. The [libraries] are locally
    attached; see {!attach_remote} for drives on a tape server. *)

val fs : t -> Repro_wafl.Fs.t

val remount : t -> unit
(** Replace the engine's file-system handle with a fresh mount of its
    volume (same configuration). Required after a physical image
    restore or a replication resync rewrites the volume underneath the
    mount: the old handle is stale, and saving the store through it
    would overwrite the restored image with stale in-memory state. *)

val catalog : t -> Catalog.t

(** {1 Remote tape servers}

    The NDMP-style three-way configuration: stackers that live on a tape
    server reached over a simulated {!Repro_net.Link} rather than cabled
    to the backup host. A remote drive is just another pool slot — parts
    scheduled onto it are shipped record-by-record by the
    {!Repro_net.Mover} through a flow-controlled {!Repro_net.Session},
    and restores ship the stream back. Byte content on the remote
    cartridges is identical to a local backup's. *)

type attach_error =
  | Empty_host
  | No_libraries of string  (** the host *)
  | Link_configured of string  (** the host *)

exception Attach_invalid of attach_error
(** A malformed {!attach_remote}, rejected before the engine changes. *)

val attach_error_message : attach_error -> string

val attach_remote :
  t ->
  host:string ->
  ?link_params:Repro_net.Link.params ->
  libraries:Repro_tape.Library.t list ->
  unit ->
  int list
(** Attach a tape server's stackers, returning their new drive indices
    (usable anywhere a drive index is: [drives] pools, catalog entries).
    The first attachment to [host] creates its link ([link_params]
    defaulting to {!Repro_net.Link.default_params}); later attachments
    reuse it and must not pass [link_params]. The control session is
    dialed lazily on first use. Raises {!Attach_invalid} on an empty
    [host], an empty [libraries], or re-configuring an existing link. *)

val drive_count : t -> int
(** Local and remote attachments together. *)

val drive_host : t -> int -> string
(** [""] for a locally attached drive. *)

val hosts : t -> string list
(** Tape-server hosts, in attachment order. *)

val link_to : t -> host:string -> Repro_net.Link.t option
val remote_drives : t -> host:string -> int list

val last_stats : t -> Scheduler.pool_stats option
(** The schedule of the most recent backup or restore: its simulated
    makespan ([p_elapsed]) and, per [Resource_id.Drive] slot of the pool,
    busy seconds and part count ([p_slots]). A restore chain's entries are
    scheduled one after another, so their makespans and per-drive figures
    are summed. [None] before any scheduled operation. *)

(** {1 Backup}

    A backup is described by a {!Job.t} — one value carrying the whole
    configuration — and run with {!backup_job}. *)

module Job : sig
  type error =
    | Empty_subtree
    | Relative_subtree of string  (** must start with ['/'] *)
    | Bad_level of int  (** dump levels are 0-9 *)
    | Bad_parts of int  (** at least one part stream *)
    | Empty_pool
    | Duplicate_drive of int
    | Unknown_drive of int  (** not a drive index of this engine *)

  exception Invalid of error
  (** A malformed job description, rejected by {!make} before anything
      touches the engine — a bad level or an empty subtree fails here
      with a typed error instead of surfacing downstream as a dump or
      scheduler failure. {!backup_job} raises [Unknown_drive] the same
      way, before it takes a snapshot or stores a checkpoint. *)

  val error_message : error -> string

  type t = private {
    strategy : Strategy.t;
    level : int;  (** dump level; 0 = full *)
    subtree : string;  (** logical backups only *)
    exclude : Repro_dump.Filter.t option;
    label : string option;  (** catalog label; defaults to the subtree *)
    parts : int;  (** independent tape streams the job is split into *)
    drives : int list option;
        (** the drive pool; [None] means drive 0 for a fresh job and the
            checkpointed pool on resume *)
    resume : bool;
  }

  val make :
    strategy:Strategy.t ->
    ?level:int ->
    ?subtree:string ->
    ?exclude:Repro_dump.Filter.t ->
    ?label:string ->
    ?parts:int ->
    ?drives:int list ->
    ?resume:bool ->
    unit ->
    t
  (** Defaults: level 0, subtree ["/"], one part, no explicit pool, fresh
      (non-resuming) job. Raises {!Invalid} on an empty or relative
      subtree, a level outside 0-9, fewer than one part, or an empty or
      duplicated drive pool. *)

  val label : t -> string
  (** The effective catalog label. *)
end

val backup_job : t -> Job.t -> Catalog.entry
(** Run one backup job. [level] applies as the dump level (a physical
    incremental requires a prior physical backup of the label, else
    [Repro_wafl.Fs.Error]); [subtree] applies to logical backups only (a
    physical dump always captures the volume).

    [parts] splits the job into that many independent tape streams, each a
    self-contained dump of its share (logical: files by inode number mod
    [parts]; physical: contiguous block ranges). Every completed part is
    checkpointed in the catalog. If a hard fault kills the job, the
    exception propagates with the checkpoint (and the job's snapshot) left
    in place; [resume] then picks the job up — level, subtree, parts, the
    drive pool and the dump date come from the checkpoint, only unfinished
    parts are dumped, and the result entry covers the whole job.
    [~resume:true] with no checkpoint for (strategy, label) raises
    [Repro_wafl.Fs.Error]. A fresh job discards any stale checkpoint (and
    its snapshot) for the same key. [exclude] is not checkpointed; pass it
    again on resume.

    [drives] is the pool, local and remote indices alike: parts are
    admitted in order to free drives and run concurrently on simulated
    time. A drive killed by a hard fault ({!Repro_fault.Fault.Drive_dead},
    or {!Repro_fault.Fault.Partitioned} for a remote drive whose link
    hard-partitions) loses only its in-flight part — the rest of the queue
    drains on the surviving drives, every completed part is checkpointed
    with the drive it landed on, and the fault then propagates;
    [~resume:true] re-dumps exactly the unfinished parts. A pool naming
    a drive the engine does not have — requested, or stored in the
    resumed checkpoint — raises [Job.Invalid (Unknown_drive d)] before
    any snapshot, checkpoint or tape is touched.

    Transient faults never surface here: each part attempt retries under
    {!Repro_fault.Retry.run}, sealing the partial stream
    before each retry — a remote part whose frames exhaust their
    retransmit budget surfaces as transient and retries the same way.
    Dumpdates and the catalog entry are recorded only when the whole job
    completes. *)

(** {1 Restore} *)

val restore_logical :
  t ->
  label:string ->
  fs:Repro_wafl.Fs.t ->
  target:string ->
  ?select:string list ->
  ?concurrency:int ->
  unit ->
  Repro_dump.Restore.apply_result list
(** Apply the full-plus-incrementals logical chain for [label] into
    [target] on [fs] (the engine's own file system or a scratch one), one
    result per chain entry. [select] extracts specific paths from the
    newest applicable full dump only (stupidity recovery does not need
    the whole chain when the file is on the level-0 tape; for files
    created later, restore the chain without [select]).

    Each result sums over its entry's part streams; [concurrency]
    (default 1 — strict part order) lets up to that many parts replay at
    once, each on the drive that wrote it, with entries of the chain
    still applied strictly in order. Streams on a remote drive are
    shipped back over the tape server's session before applying (the
    three-way restore path). Raises [Repro_wafl.Fs.Error] when no
    logical backup of [label] exists. *)

val restore_physical :
  t ->
  label:string ->
  volume:Repro_block.Volume.t ->
  ?concurrency:int ->
  unit ->
  Repro_image.Image_restore.result list
(** Disaster recovery: replay the image chain for [label] onto a (new)
    [volume], one result per chain entry; mount it afterwards with
    [Repro_wafl.Fs.mount]. [concurrency] and remote streams behave as in
    {!restore_logical}. Raises [Repro_wafl.Fs.Error] when no physical
    backup of [label] exists. *)

val verify_physical : t -> label:string -> (int, string list) result
(** Checksum-verify every stream of the physical chain. *)

val table_of_contents : t -> Catalog.entry -> Repro_dump.Restore.toc_entry list
(** Read the named backup's front matter and list its contents (logical
    dumps only). Multi-part entries are merged: directories appear in
    every part's stream and are reported once. *)

val verify_logical :
  t -> label:string -> fs:Repro_wafl.Fs.t -> target:string -> (unit, string list) result
(** [restore -C]: compare the newest full logical dump of [label] against
    the live tree under [target] without writing anything. Meaningful when
    the tree has not changed since that dump (verify right after backup).
    Multi-part entries compare every part stream. *)

(** {1 Persistence}

    The engine's operational state — stackers with their cartridges, the
    dumpdates database, the catalog with any in-flight checkpoints, stream
    counters — serializes as one blob, so an interrupted job survives a
    process restart and resumes from the reloaded store. The file system's
    volume is saved separately (see {!Repro_block.Persist} and
    {!Store}). The current generation is [RENG4] (links and remote
    attachments included); {!load} also reads [RENG3] and [RENG2] stores,
    whose drives come back locally attached (see docs/FORMATS.md). *)

val save : Repro_util.Serde.writer -> t -> unit

val load :
  ?clock:Repro_sim.Clock.t ->
  Repro_util.Serde.reader ->
  fs:Repro_wafl.Fs.t ->
  t

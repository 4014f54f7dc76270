(** Volume mirroring over image dump/restore — the paper's §6: "the image
    dump/restore technology also has potential application to remote
    mirroring and replication of volumes".

    A mirror is a remote volume kept in sync by shipping a full image once
    and plane-difference incrementals thereafter, over a rate-limited link
    (modeled as a high-capacity streaming device). Mounting the mirror
    yields the source as of the last transferred snapshot — snapshots and
    all. *)

type t

type error =
  | Not_initialized  (** {!update} before {!initialize} *)
  | Snapshot_gap of { base : string }
      (** The last mirrored snapshot was deleted on the source, so no
          incremental can chain from it; the caller must re-initialize
          (or, in the replication plane, {!Repro_repl.Repl.resync}). *)

exception Error of error

val error_message : error -> string

type transfer = {
  snapshot : string;
  blocks : int;
  payload_bytes : int;
  link_seconds : float;  (** time on the replication link *)
}

val create : ?link_mb_s:float -> label:string -> Repro_block.Volume.t -> t
(** Default link: 12.5 MB/s (a 100 Mbit pipe). *)

val initialize : t -> from:Repro_wafl.Fs.t -> snapshot:string -> transfer
(** Full image transfer of [snapshot]. *)

val update : t -> from:Repro_wafl.Fs.t -> snapshot:string -> transfer
(** Incremental transfer from the last mirrored snapshot to [snapshot].
    Raises [Error Not_initialized] before {!initialize}, and
    [Error (Snapshot_gap _)] when the last mirrored snapshot no longer
    exists on the source. *)

val mount : t -> Repro_wafl.Fs.t
(** Mount the mirror for reading/verification. *)

(** The administrator's snapshot schedule.

    Paper §2.1: "snapshots can be taken manually, and are also taken on a
    schedule selected by the file system administrator; a common schedule
    is hourly snapshots taken every 4 hours throughout the day and kept
    for 24 hours plus daily snapshots taken every night at midnight and
    kept for 2 days." That common schedule is the one this scheduler
    keeps.

    The scheduler owns snapshots named [hourly.N] and [nightly.N]
    (monotonic [N]; the highest is the newest). Manually created snapshots
    and the backup engine's [dump.*]/[image.*] snapshots are never
    touched. Rotation respects the file system's
    {!Layout.max_snapshots} limit: if no slot is free, the oldest
    scheduler-owned snapshot is retired early. *)

type t

val create : Fs.t -> t
(** Adopts any existing [hourly.*]/[nightly.*] snapshots (so a schedule
    survives a remount). *)

val tick : t -> now:float -> string list
(** Advance the schedule to [now] (seconds on any monotonic timeline):
    creates whatever snapshots are due, prunes expired ones, and returns
    the names created. Call as often as convenient; intervals are measured
    from the previous scheduled snapshot of each class. *)

val hourlies : t -> string list
(** Newest first. *)

val nightlies : t -> string list

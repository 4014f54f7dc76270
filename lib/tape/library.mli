(** A tape stacker: a drive plus a magazine of cartridges with automatic
    media change (Breece-Hill style, as on the paper's filer).

    When a dump fills a cartridge, the stacker unloads it, loads the next
    blank, and the backup stream continues; restore walks the cartridges in
    the same order. *)

type t

val create : ?params:Tape.params -> ?slots:int -> label:string -> unit -> t
(** [slots] blank cartridges in the magazine (default 8). *)

val drive : t -> Tape.t

val load_next : t -> bool
(** Unload the current cartridge (if any) to the "used" stack and load the
    next one from the magazine; [false] if the magazine is empty. *)

val rewind_to_start : t -> unit
(** Reload the first written cartridge and rewind (for restore). Raises
    [Invalid_argument] if nothing has been written. *)

val advance_for_read : t -> bool
(** During restore: move to the next used cartridge in sequence; [false]
    when there are no more. *)

val used_media : t -> Tape.media list
(** Cartridges written so far, in order (including the loaded one). *)

val ensure_appendable : t -> unit
(** If the drive is empty but cartridges exist, reload the last written
    cartridge positioned at end of data, so new writes append. No-op when
    a cartridge is loaded or nothing has been written. *)

val dangling_stream : t -> bool
(** True iff the last written cartridge ends in a data record rather than
    a filemark: an interrupted stream that the engine must seal before
    writing anything new (see {!Repro_backup.Engine}). *)

val change_time_total : t -> float
(** Accumulated robot time (for accounting; media changes overlap nothing). *)

val save : Repro_util.Serde.writer -> t -> unit
(** Persist the stacker: drive parameters, written cartridges, and the
    count of remaining blanks. *)

val load : Repro_util.Serde.reader -> t
(** Raises [Serde.Corrupt] on malformed input, including a drive
    parameter that is not finite or not positive. The loaded stacker has no
    cartridge in the drive; reading starts with {!rewind_to_start}, new
    writes with {!load_next}. *)

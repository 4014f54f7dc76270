(** The logical (file-based) dump: a four-phase, inode-ordered backup
    through the file system, as in paper §3.

    Phase I walks the tree mapping inodes in use and inodes to dump (all of
    them at level 0; those changed since the base date for an incremental).
    Phase II marks the directories between the dump root and every selected
    file, so restore can map names to inode numbers. Phases III and IV
    write the directories and then the files, each in ascending inode
    order, each prefixed with its 1 KB header.

    The dump reads from a {!Repro_wafl.Fs.View.v} — normally a snapshot
    view, so the stream is a self-consistent picture of the file system
    without taking it offline. *)

type result = {
  level : int;
  dump_date : float;
  base_date : float;
  bytes_written : int;
  files_dumped : int;
  dirs_dumped : int;
  inodes_mapped : int;  (** inodes marked in use by phase I *)
  files_skipped : int;
      (** unreadable files skipped in degraded mode: their headers are on
          tape with no data, so restore yields an empty file *)
}

val run :
  ?level:int ->
  ?dumpdates:Dumpdates.t ->
  ?record:bool ->
  ?exclude:Filter.t ->
  ?cpu:Repro_sim.Resource.t ->
  ?part:int * int ->
  ?observe:(string -> (unit -> unit) -> unit) ->
  view:Repro_wafl.Fs.View.v ->
  subtree:string ->
  label:string ->
  date:float ->
  sink:Repro_tape.Tapeio.sink ->
  unit ->
  result
(** [run ~view ~subtree ~label ~date ~sink ()] dumps the subtree rooted at
    [subtree] and closes the sink (filemark). [level] defaults to 0; an
    incremental's base date comes from [dumpdates] (which is also updated
    with this dump's date unless [record] is [false] — the engine passes
    [~record:false] and records itself only once the whole job, possibly
    many parts, completes).

    [part] is [(i, n)]: emit part [i] of an [n]-way partitioned dump
    carrying the files whose inode number is congruent to [i] mod [n].
    Every part carries the full usage map and all dumped directories, so
    each part's stream restores independently and in any order; applying
    all [n] parts reproduces exactly the single-stream result. The default
    [(0, 1)] is the ordinary whole dump. Dumpdates are recorded only by
    the last part.

    Unreadable files (a {!Repro_fault.Fault.Media_error} escaping the
    block layer) are skipped, not fatal: the file's header is written with
    no data, [files_skipped] is incremented, and the skip is journaled in
    the armed fault plane. This is the logical dump's graceful degradation
    — contrast {!Repro_image.Image_dump}, which fails the whole image.

    [observe] wraps the measurable stages ("mapping", "dumping
    directories", "dumping files") for the Table 3 instrumentation. Raises
    [Repro_wafl.Fs.Error] if [subtree] does not name a directory. *)

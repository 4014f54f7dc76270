(** Logical restore.

    Mirrors the BSD restore the paper describes (§3): the directory records
    are read off the front of the tape into an in-memory {e desiccated}
    directory table — name-to-inode maps kept off the file system — which
    restore uses to run its own [namei]. Files are then created through the
    file system ("creating files") and their contents streamed in
    ("filling in data"), with directory permissions and times fixed up at
    the end, since creating children disturbs them.

    A {!session} carries the dump-inode-to-path mapping between
    applications, so a level-0 restore followed by incremental restores
    reconciles deletions, renames and moves the way successive BSD
    incremental restores do.

    Damaged tape records are survivable: an invalid header causes a rescan
    for the next valid one, losing only the affected file ("a minor tape
    corruption will usually affect only that single file"). *)

exception Error of string

type session

val session :
  ?cpu:Repro_sim.Resource.t ->
  fs:Repro_wafl.Fs.t ->
  target:string ->
  unit ->
  session
(** Restores land under [target] (created if missing). *)

val save_session : session -> string
(** The BSD [restoresymtable]: serialize the inode-to-name picture so an
    incremental chain can continue in a later process. *)

val load_session :
  ?cpu:Repro_sim.Resource.t ->
  fs:Repro_wafl.Fs.t ->
  string ->
  session
(** Raises [Serde.Corrupt] on malformed input. The file system handle is
    supplied fresh; the target and history come from the blob. *)

type apply_result = {
  files_restored : int;
  dirs_created : int;
  files_deleted : int;
  renames : int;
  bytes_restored : int;
  corrupt_headers_skipped : int;
}

val apply :
  ?observe:(string -> (unit -> unit) -> unit) ->
  ?select:string list ->
  session ->
  Repro_tape.Tapeio.source ->
  apply_result
(** Apply one dump stream. With [select] (dump-root-relative paths), only
    the named files/subtrees are extracted — "stupidity recovery" — and no
    reconciliation is performed; otherwise a full or incremental restore
    runs depending on the stream's level and the session history.
    [observe] wraps "creating files" and "filling in data". *)

(**/**)

val apply_with :
  write_run:
    (Repro_sim.Resource.t option ->
    Repro_wafl.Fs.t ->
    string ->
    int ->
    string list ->
    int ->
    int) ->
  ?observe:(string -> (unit -> unit) -> unit) ->
  ?select:string list ->
  session ->
  Repro_tape.Tapeio.source ->
  apply_result
(** {!apply} with its run writer replaced, for the test oracle of the
    copy-free data path only: [write_run cpu fs path start_lbn run n]
    writes the [n] blocks of [run] (newest first) at block [start_lbn] of
    [path] and returns the bytes written. *)

(**/**)

type toc_entry = { rel_path : string; ino : int; is_dir : bool }

val table_of_contents : Repro_tape.Tapeio.source -> toc_entry list
(** Read just the front matter (maps + directory records) and report what
    the stream contains, without touching any file system. *)

val compare :
  fs:Repro_wafl.Fs.t ->
  target:string ->
  Repro_tape.Tapeio.source ->
  (unit, string list) result
(** [restore -C]: walk one (level-0) dump stream and compare it against
    the live tree under [target] without writing anything — structure,
    file content, sizes, permissions, DOS flags, and extended attributes.
    [Ok ()] or the list of differences (capped at 50). The tape is read in
    full either way, as a real verification pass would be. *)

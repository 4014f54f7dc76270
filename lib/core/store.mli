(** One-file persistence for a whole simulated filer.

    A store file holds the volume image (sparse), the tape stackers with
    their cartridges, the catalog and the dumpdates database, so the
    [backupctl] command-line tool can operate on a filer across process
    invocations like any other stateful system. *)

val save : path:string -> Engine.t -> unit
(** Takes a consistency point first, then writes everything, replacing
    [path] atomically ({!Repro_util.Atomic_file}): a crash mid-save
    leaves the previous store intact. *)

val load : path:string -> Engine.t
(** Raises [Sys_error] on I/O problems, [Serde.Corrupt] or
    [Repro_wafl.Fs.Error] on a damaged store. *)

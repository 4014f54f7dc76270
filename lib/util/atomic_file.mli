(** Crash-safe replacement of a whole file.

    The new contents go to a temporary file in the target's directory,
    which is flushed, closed and then renamed over the target. A reader —
    or a process restarted after a crash — therefore sees either the
    previous file or the complete new one, never a torn mix. *)

val write : string -> (out_channel -> unit) -> unit
(** [write path f] runs [f] on a fresh binary channel and atomically
    replaces [path] with what it wrote. If [f], the flush or the rename
    raises, the temporary file is removed, [path] keeps its previous
    bytes, and the exception is re-raised. *)

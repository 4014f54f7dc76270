(** The NVRAM operation log.

    WAFL "uses NVRAM only to store recent NFS operations" — a log of
    requests not yet committed by a consistency point, replayed at mount
    after a crash (paper §2.2). It is emphatically {e not} a disk cache:
    losing NVRAM contents leaves the file system self-consistent at its
    last consistency point; only the logged operations are lost.

    Entries are tagged with the consistency-point generation current when
    they were logged; a mount of generation [g] replays exactly the entries
    tagged [g]. A full log forces the file system to take a consistency
    point (as the real filer does). *)

type op =
  | Create_file of { path : string; perms : int }
  | Mkdir of { path : string; perms : int }
  | Write of { path : string; offset : int; data : string list }
      (** One write of the pieces' concatenation at [offset]. The pieces
          are the very strings the writer passed to [Fs.writev], so the
          log copies no data; the file system may hold the same strings
          as blocks ([Fs.writev]'s lending). Its size is what one
          concatenated piece would log. *)
  | Truncate of { path : string; size : int }
  | Unlink of { path : string }
  | Rmdir of { path : string }
  | Rename of { src : string; dst : string }
  | Link of { existing : string; path : string }
  | Symlink of { target : string; path : string }
  | Set_xattr of { path : string; name : string; value : string }
  | Remove_xattr of { path : string; name : string }
  | Set_dos_flags of { path : string; flags : int }
  | Set_perms of { path : string; perms : int }
  | Set_owner of { path : string; uid : int; gid : int }
  | Set_qtree of { path : string; qtree : int }
  | Set_qtree_limit of { path : string; limit : int option }  (** [None] = no limit *)

type t

exception Failed of string
(** Raised (with the device label) by {!append} once the NVRAM has
    {!fail}ed: a dead log must not silently accept operations it cannot
    protect. *)

val create : ?capacity_bytes:int -> ?label:string -> unit -> t
(** Default capacity 32 MB, as on the paper's F630. [label] (default
    ["nvram"]) addresses the device in fault plans
    ({!Repro_fault.Fault}). *)

val append : t -> tag:int -> op -> bool
(** [false] if the entry does not fit: the caller must take a consistency
    point (which clears the log) and retry. Raises {!Failed} if the NVRAM
    has failed (sticky), or at the moment an armed fault plane's
    [Nvram_loss] fires — the contents are lost and the log enters the
    failed state. *)

val entries_tagged : t -> tag:int -> op list
(** Empty once the NVRAM has failed: the contents are gone, and a mount
    replays nothing (the file system stays self-consistent at its last
    consistency point — the property §2.2 argues for). *)

val clear : t -> unit
(** After a successful consistency point, or on a clean shutdown. An
    administrative clear: the log keeps working. *)

val fail : t -> unit
(** Hardware failure: contents lost {e and} the log enters a sticky
    failed state — subsequent {!append}s raise {!Failed} until
    {!replace}. Distinct from {!clear}, which merely empties a healthy
    log. *)

val failed : t -> bool

val replace : t -> unit
(** Install replacement hardware: an empty, working log. *)

val op_size : op -> int
(** Serialized size, for capacity accounting. *)

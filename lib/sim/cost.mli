(** CPU cost model, calibrated to the paper's filer (500 MHz Alpha 21164A).

    The reproduction's code paths do real work on real bytes, but the CPU
    they account for is the 1999 machine's, not the host's: each path
    charges simulated seconds to the CPU {!Resource.t} using these
    constants. They were calibrated so that the single-tape run reproduces
    Table 3's utilization ratios (logical dump ≈ 5× physical dump CPU,
    logical restore ≈ 3× physical restore CPU); see EXPERIMENTS.md.

    All [*_per_byte] values are seconds per byte; [*_per_op] values are
    seconds per operation. *)

type t = {
  fs_read_per_byte : float;
      (** buffer-cache lookup + copy on the file-system read path *)
  fs_write_per_byte : float;
      (** write path through the file system (allocation, cache insert) *)
  nvram_per_byte : float;  (** logging an operation's payload to NVRAM *)
  fs_op : float;  (** one metadata operation: a namei step, inode update *)
  dump_format_per_byte : float;
      (** converting file data into the canonical dump stream *)
  dump_per_file : float;  (** per-file header construction, map updates *)
  dump_per_dirent : float;  (** phase I/II tree-walk work per entry *)
  dump_map_per_inode : float;  (** phase I inode evaluation *)
  restore_create_per_file : float;
      (** logical restore: create one file/directory through the fs *)
  restore_write_per_byte : float;  (** logical restore: data fill-in *)
  image_per_byte : float;  (** physical path: checksum + record framing *)
  image_per_block : float;  (** per 4 KB block record bookkeeping *)
}

val f630 : t
(** Calibration for the paper's Network Appliance F630. *)

val charge : Resource.t option -> float -> unit
(** [charge cpu secs] charges [secs] to [cpu] when there is one; a path
    run without a CPU resource accounts nothing. *)

(** Synthetic file-system population.

    Stands in for the paper's real engineering-department volumes: a
    directory tree with configurable fan-out and log-normally distributed
    file sizes (the classic long-tailed shape of real file systems — most
    files small, most bytes in large files). Fully deterministic per
    seed. *)

type profile = {
  seed : int;
  median_file_bytes : float;  (** log-normal median *)
  sigma : float;  (** log-normal shape; 1.2–1.8 is realistic *)
  files_per_dir : int;
  dirs_per_dir : int;
  max_depth : int;
}

val default : profile
(** seed 1, 8 KB median, sigma 1.4, 12 files and 3 subdirs per directory,
    depth 4. Whatever the profile, 10% of files carry multi-protocol
    (DOS/ACL) attributes. *)

type stats = { files : int; dirs : int; bytes : int }

val populate :
  ?profile:profile -> fs:Repro_wafl.Fs.t -> root:string -> total_bytes:int -> unit -> stats
(** Create directories and files under [root] (created if missing) until at
    least [total_bytes] of file data exist. Takes a consistency point at
    the end. *)

val file_paths : Repro_wafl.Fs.t -> string -> string list
(** All regular-file paths under a directory, depth-first, sorted. *)

type op =
  | Create_file of { path : string; perms : int }
  | Mkdir of { path : string; perms : int }
  | Write of { path : string; offset : int; data : string list }
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
  | Set_qtree_limit of { path : string; limit : int option }

exception Failed of string

type t = {
  label : string;
  capacity : int;
  mutable used : int;
  mutable entries : (int * op) list; (* newest first *)
  mutable is_failed : bool;
}

let create ?(capacity_bytes = 32 * 1024 * 1024) ?(label = "nvram") () =
  if capacity_bytes <= 0 then invalid_arg "Nvram.create";
  { label; capacity = capacity_bytes; used = 0; entries = []; is_failed = false }


(* Fixed per-entry overhead (tag, opcode, framing) plus payload. *)
let op_size op =
  let base = 16 in
  base
  +
  match op with
  | Create_file { path; _ } | Mkdir { path; _ } -> String.length path + 4
  | Write { path; data; _ } ->
    List.fold_left (fun n p -> n + String.length p) (String.length path + 12) data
  | Truncate { path; _ } -> String.length path + 8
  | Unlink { path } | Rmdir { path } -> String.length path
  | Rename { src; dst } -> String.length src + String.length dst
  | Link { existing; path } -> String.length existing + String.length path
  | Symlink { target; path } -> String.length target + String.length path
  | Set_xattr { path; name; value } ->
    String.length path + String.length name + String.length value
  | Remove_xattr { path; name } -> String.length path + String.length name
  | Set_dos_flags { path; _ }
  | Set_owner { path; _ }
  | Set_perms { path; _ }
  | Set_qtree { path; _ }
  | Set_qtree_limit { path; _ } ->
    String.length path + 4

let append t ~tag op =
  if t.is_failed then raise (Failed t.label);
  (match Repro_fault.Fault.on_nvram_log ~device:t.label with
  | `Ok -> ()
  | `Lost ->
    (* The hardware died under us: everything logged so far — and this
       operation — is gone, and the log is unusable until replaced. *)
    t.entries <- [];
    t.used <- 0;
    t.is_failed <- true;
    raise (Failed t.label));
  let sz = op_size op in
  if t.used + sz > t.capacity then false
  else begin
    t.entries <- (tag, op) :: t.entries;
    t.used <- t.used + sz;
    Repro_obs.Obs.count "nvram.log.ops" 1;
    Repro_obs.Obs.count "nvram.log.bytes" sz;
    true
  end

let entries_tagged t ~tag =
  if t.is_failed then []
  else
    List.rev
      (List.filter_map (fun (g, op) -> if g = tag then Some op else None) t.entries)

let clear t =
  t.entries <- [];
  t.used <- 0

let fail t =
  clear t;
  t.is_failed <- true

let failed t = t.is_failed

let replace t =
  clear t;
  t.is_failed <- false

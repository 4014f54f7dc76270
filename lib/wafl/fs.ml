module Bitmap = Repro_util.Bitmap
module Serde = Repro_util.Serde
module Block = Repro_block.Block
module Volume = Repro_block.Volume
module Resource = Repro_sim.Resource
module Cost = Repro_sim.Cost

exception Error of string

let err fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

type config = {
  costs : Cost.t;
  cpu : Resource.t option;
  auto_cp_ops : int;
  now : unit -> float;
}

let default_config () =
  let tick = ref 0.0 in
  {
    costs = Cost.f630;
    cpu = None;
    auto_cp_ops = 100_000;
    now =
      (fun () ->
        tick := !tick +. 1.0;
        !tick);
  }

(* Tables keyed by inode, block or volume block number: hashed as the
   int itself, compared without a polymorphic call. *)
module Int_key = struct
  type t = int

  let equal = Int.equal
  let hash (x : int) = x land max_int
end

module Itbl = Hashtbl.Make (Int_key)

(* A block dirty in the current CP. [Owned] bytes are fresh and the
   ftree's alone, so later edits in the same CP change them in place. A
   [Lent] string is a whole block a writer handed over ({!writev}): it is
   immutable, so the ftree keeps it as it is, and the first in-place edit
   turns it into an [Owned] copy. Either way the CP hands the block to
   the volume as an immutable string. *)
type dirty = Owned of bytes | Lent of string

let dirty_string = function Owned b -> Bytes.unsafe_to_string b | Lent s -> s

(* In-memory image of one file's block tree. [f_ptrs] maps logical block
   number to vbn ([Layout.no_block] = hole); dirty data lives only in
   [f_dirty] until the next consistency point allocates it a home. *)
type ftree = {
  f_ino : int; (* -1 denotes the inode file itself *)
  mutable f_inode : Inode.t;
  mutable f_ptrs : int array;
  f_dirty : dirty Itbl.t;
  mutable f_indirects : int list; (* on-disk indirect-block vbns *)
  mutable f_meta_dirty : bool;
  mutable f_data_dirty : bool;
}

module Lru = Repro_util.Lru.Make (Int_key)

type t = {
  vol : Volume.t;
  config : config;
  nvram : Nvram.t option;
  bmap : Blockmap.t;
  mutable cp_protect : Bitmap.t;
  mutable root : Inode.t;
  mutable gen : int;
  vol_blocks : int;
  max_ino : int;
  mutable next_snap_id : int;
  mutable next_qtree : int;
  qtree_used : (int, int ref) Hashtbl.t; (* bytes of file data per qtree *)
  qtree_limits : (int, int) Hashtbl.t;
  mutable snaps : Fsinfo.snap_entry list;
  inode_file : ftree;
  bmap_file : ftree;
  ftrees : ftree Itbl.t;
  xattr_dirty : (int, (string * string) list) Hashtbl.t;
  ino_used : Bitmap.t;
  lru : string Lru.t; (* stored blocks, shared with the volume *)
  pending : (int, string) Hashtbl.t; (* blocks allocated mid-CP, not yet on disk *)
  mutable alloc_cursor : int;
  mutable ops_since_cp : int;
  mutable dirty_count : int;
  mutable replaying : bool;
  mutable dead : bool;
}

type snap_info = { name : string; id : int; created : float; blocks : int }

(* ------------------------------------------------------------------ *)
(* CPU accounting                                                      *)

let charge t secs =
  match t.config.cpu with Some r -> Resource.charge r secs | None -> ()

let charge_op t n = charge t (Float.of_int n *. t.config.costs.Cost.fs_op)
let charge_read t bytes = charge t (Float.of_int bytes *. t.config.costs.Cost.fs_read_per_byte)
let charge_write t bytes = charge t (Float.of_int bytes *. t.config.costs.Cost.fs_write_per_byte)
let charge_nvram t bytes = charge t (Float.of_int bytes *. t.config.costs.Cost.nvram_per_byte)

(* ------------------------------------------------------------------ *)
(* Raw block access                                                    *)

let alive t = if t.dead then err "file system handle is dead (crashed)"

let vol_read t vbn =
  match if Hashtbl.length t.pending = 0 then None else Hashtbl.find_opt t.pending vbn with
  | Some b -> b
  | None -> (
    match Lru.find t.lru vbn with
    | Some b -> b
    | None ->
      let b = Volume.read t.vol vbn in
      Lru.add t.lru vbn b;
      b)

(* ------------------------------------------------------------------ *)
(* Pointer-tree loading                                                *)

let encode_ptr_block ptrs off count =
  let b = Block.zero () in
  for i = 0 to count - 1 do
    let p = if off + i < Array.length ptrs then ptrs.(off + i) else Layout.no_block in
    Bytes.set_int32_le b (i * 4) (Int32.of_int p)
  done;
  Bytes.unsafe_to_string b

(* Materialize the lbn->vbn map and the list of indirect-block vbns from an
   on-disk inode. [read] lets views substitute uncached volume reads. *)
let load_ptrs_with ~read (inode : Inode.t) =
  let ptr_block vbn =
    let b : string = read vbn in
    Array.init Layout.ptrs_per_block (fun i ->
        Int32.to_int (String.get_int32_le b (i * 4)) land 0xffffffff)
  in
  let n = Inode.nblocks inode in
  let ptrs = Array.make (Stdlib.max n Layout.ndirect) Layout.no_block in
  let indirects = ref [] in
  let nd = Layout.ndirect and ppb = Layout.ptrs_per_block in
  for i = 0 to Stdlib.min n nd - 1 do
    ptrs.(i) <- inode.direct.(i)
  done;
  if n > nd && inode.single <> Layout.no_block then begin
    indirects := inode.single :: !indirects;
    let ind = ptr_block inode.single in
    for i = 0 to Stdlib.min (n - nd) ppb - 1 do
      ptrs.(nd + i) <- ind.(i)
    done
  end;
  if n > nd + ppb && inode.double <> Layout.no_block then begin
    indirects := inode.double :: !indirects;
    let l2 = ptr_block inode.double in
    let remaining = n - nd - ppb in
    let nl2 = (remaining + ppb - 1) / ppb in
    for j = 0 to nl2 - 1 do
      if l2.(j) <> Layout.no_block then begin
        indirects := l2.(j) :: !indirects;
        let ind = ptr_block l2.(j) in
        let base = nd + ppb + (j * ppb) in
        for i = 0 to Stdlib.min (n - base) ppb - 1 do
          ptrs.(base + i) <- ind.(i)
        done
      end
    done
  end;
  (ptrs, !indirects)

let load_ptrs t inode = load_ptrs_with ~read:(vol_read t) inode

(* ------------------------------------------------------------------ *)
(* ftree primitives                                                    *)

let ftree_of_inode t ~ino inode =
  let ptrs, indirects = load_ptrs t inode in
  {
    f_ino = ino;
    f_inode = inode;
    f_ptrs = ptrs;
    f_dirty = Itbl.create 16;
    f_indirects = indirects;
    f_meta_dirty = false;
    f_data_dirty = false;
  }

let ftree_grow ft lbn =
  if lbn >= Array.length ft.f_ptrs then begin
    let ncap = Stdlib.max (lbn + 1) (2 * Array.length ft.f_ptrs) in
    let np = Array.make ncap Layout.no_block in
    Array.blit ft.f_ptrs 0 np 0 (Array.length ft.f_ptrs);
    ft.f_ptrs <- np
  end

(* An [Owned] dirty block comes back as a view of the ftree's own
   buffer: read it and let go, since a later edit changes it in place. *)
let ftree_read_block t ft lbn =
  if lbn < 0 then invalid_arg "ftree_read_block";
  match Itbl.find ft.f_dirty lbn with
  | d -> dirty_string d
  | exception Not_found ->
    if lbn < Array.length ft.f_ptrs && ft.f_ptrs.(lbn) <> Layout.no_block then
      vol_read t ft.f_ptrs.(lbn)
    else Block.zeros

(* The ftree takes [block] over: [Owned] bytes must be fresh. *)
let ftree_write_block t ft lbn block =
  Block.check (dirty_string block);
  if lbn >= Layout.max_file_blocks then err "file too large";
  ftree_grow ft lbn;
  if not (Itbl.mem ft.f_dirty lbn) then t.dirty_count <- t.dirty_count + 1;
  Itbl.replace ft.f_dirty lbn block;
  ft.f_data_dirty <- true

(* Block [lbn], dirty and owned by [ft], to edit in place: the owned dirty
   block itself, or a fresh copy of a lent or clean one made dirty. *)
let ftree_own_block t ft lbn =
  match Itbl.find ft.f_dirty lbn with
  | Owned b -> b
  | Lent s ->
    let b = Bytes.of_string s in
    Itbl.replace ft.f_dirty lbn (Owned b);
    b
  | exception Not_found ->
    let b = Bytes.of_string (ftree_read_block t ft lbn) in
    ftree_write_block t ft lbn (Owned b);
    b

(* ------------------------------------------------------------------ *)
(* Inode file access                                                   *)

let slot_of_ino ino = (ino / Layout.inodes_per_block, ino mod Layout.inodes_per_block)

let check_ino t ino =
  if ino < 0 || ino >= t.max_ino then err "inode %d out of range" ino

let read_inode t ino =
  check_ino t ino;
  match Itbl.find t.ftrees ino with
  | ft -> ft.f_inode
  | exception Not_found ->
    if ino = Layout.blockmap_ino then t.bmap_file.f_inode
    else begin
      let lbn, slot = slot_of_ino ino in
      let b = ftree_read_block t t.inode_file lbn in
      Inode.decode b ~pos:(slot * Layout.inode_size)
    end

let write_inode_slot t ino inode =
  check_ino t ino;
  let lbn, slot = slot_of_ino ino in
  Inode.encode_into (ftree_own_block t t.inode_file lbn) ~pos:(slot * Layout.inode_size)
    inode

let get_ftree t ino =
  if ino = Layout.blockmap_ino then t.bmap_file
  else
    match Itbl.find t.ftrees ino with
    | ft -> ft
    | exception Not_found ->
      let inode = read_inode t ino in
      if Inode.is_free inode then err "inode %d is not allocated" ino;
      let ft = ftree_of_inode t ~ino inode in
      Itbl.add t.ftrees ino ft;
      ft

let set_inode ft inode =
  ft.f_inode <- inode;
  ft.f_meta_dirty <- true

(* ------------------------------------------------------------------ *)
(* Quota-tree accounting: file-data bytes per qtree id                 *)

let qtree_charge t qid delta =
  if qid > 0 && delta <> 0 then begin
    match Hashtbl.find_opt t.qtree_used qid with
    | Some r -> r := Stdlib.max 0 (!r + delta)
    | None -> Hashtbl.replace t.qtree_used qid (ref (Stdlib.max 0 delta))
  end

let qtree_check t qid growth =
  if qid > 0 && growth > 0 && not t.replaying then
    match Hashtbl.find_opt t.qtree_limits qid with
    | Some limit ->
      let used =
        match Hashtbl.find_opt t.qtree_used qid with Some r -> !r | None -> 0
      in
      if used + growth > limit then
        err "quota exceeded for qtree %d: %d + %d > %d bytes" qid used growth limit
    | None -> ()

(* ------------------------------------------------------------------ *)
(* Directories                                                         *)

let dir_iter_blocks t ft f =
  let n = Inode.nblocks ft.f_inode in
  let rec loop lbn = if lbn < n then if f lbn (ftree_read_block t ft lbn) then () else loop (lbn + 1) in
  loop 0

(* The inode the name [s.[pos .. pos + len - 1]] maps to in the first of
   [ft]'s blocks [lbn ..] that holds it, or -1. *)
let rec dir_find_from t ft ~nblocks lbn s ~pos ~len =
  if lbn >= nblocks then -1
  else
    let ino = Dir.find_sub (ftree_read_block t ft lbn) s ~pos ~len in
    if ino >= 0 then ino else dir_find_from t ft ~nblocks (lbn + 1) s ~pos ~len

let dir_lookup t dir_ino name =
  let ft = get_ftree t dir_ino in
  if ft.f_inode.Inode.kind <> Inode.Directory then err "inode %d: not a directory" dir_ino;
  let ino =
    dir_find_from t ft ~nblocks:(Inode.nblocks ft.f_inode) 0 name ~pos:0 ~len:(String.length name)
  in
  if ino < 0 then None else Some ino

let dir_entries t dir_ino =
  let ft = get_ftree t dir_ino in
  let acc = ref [] in
  dir_iter_blocks t ft (fun _ b ->
      acc := !acc @ Dir.entries b;
      false);
  !acc

(* The entries other than "." and "..". *)
let named entries =
  List.filter (fun (n, _) -> not (String.equal n "." || String.equal n "..")) entries

(* Edit the first block [pick] accepts, in place; whether one did. *)
let dir_edit t ft pick edit =
  let done_ = ref false in
  dir_iter_blocks t ft (fun lbn b ->
      done_ := pick b;
      if !done_ then ignore (edit (ftree_own_block t ft lbn) : bool);
      !done_);
  !done_

let dir_add t dir_ino name ino =
  let ft = get_ftree t dir_ino in
  let placed = dir_edit t ft (fun b -> Dir.fits b name) (fun b -> Dir.add b name ino) in
  if not placed then begin
    let lbn = Inode.nblocks ft.f_inode in
    let b = Dir.empty_block () in
    if not (Dir.add b name ino) then err "directory entry too large";
    ftree_write_block t ft lbn (Owned b);
    set_inode ft
      { ft.f_inode with size = (lbn + 1) * Block.size; mtime = t.config.now () }
  end
  else set_inode ft { ft.f_inode with mtime = t.config.now () }

let has name b = Option.is_some (Dir.find b name)

let dir_remove t dir_ino name =
  let ft = get_ftree t dir_ino in
  if not (dir_edit t ft (has name) (fun b -> Dir.remove b name)) then
    err "no such directory entry %S" name;
  set_inode ft { ft.f_inode with mtime = t.config.now () }

let dir_replace t dir_ino name ino =
  let ft = get_ftree t dir_ino in
  if not (dir_edit t ft (has name) (fun b -> Dir.replace b name ino)) then
    err "no such directory entry %S" name

(* ------------------------------------------------------------------ *)
(* Path resolution                                                     *)

let split_path path =
  if String.length path = 0 || path.[0] <> '/' then err "path %S is not absolute" path;
  String.split_on_char '/' path |> List.filter (fun c -> String.length c > 0)

let rec component_end path n j =
  if j < n && String.unsafe_get path j <> '/' then component_end path n (j + 1) else j

(* The walk matches each component where it lies in [path], so it builds
   no list and allocates nothing of its own; it reads the same blocks,
   charges the same ops and raises the same errors as a walk over
   [split_path]. *)
let rec namei_from t path n ino i =
  if i >= n then ino
  else if String.unsafe_get path i = '/' then namei_from t path n ino (i + 1)
  else begin
    let j = component_end path n i in
    charge_op t 1;
    (* A loaded ftree is [read_inode] and [get_ftree] in one lookup. *)
    let ft =
      match Itbl.find t.ftrees ino with
      | ft -> ft
      | exception Not_found ->
        if (read_inode t ino).Inode.kind <> Inode.Directory then
          err "%S: not a directory" path;
        get_ftree t ino
    in
    if ft.f_inode.Inode.kind <> Inode.Directory then err "%S: not a directory" path;
    let next = dir_find_from t ft ~nblocks:(Inode.nblocks ft.f_inode) 0 path ~pos:i ~len:(j - i) in
    if next < 0 then err "%S: no such file or directory" path;
    namei_from t path n next j
  end

let namei t path =
  let n = String.length path in
  if n = 0 || path.[0] <> '/' then err "path %S is not absolute" path;
  namei_from t path n Layout.root_ino 1

let namei_opt t path = try Some (namei t path) with Error _ -> None

(* Whether directory [dir] is [ino] or lies below it, up its ".." chain.
   The blocks it reads are the ones the walk to [dir] has just cached. *)
let rec below t dir ~ino =
  dir = ino
  || dir <> Layout.root_ino
     &&
     let ft = get_ftree t dir in
     let up = dir_find_from t ft ~nblocks:(Inode.nblocks ft.f_inode) 0 ".." ~pos:0 ~len:2 in
     up >= 0 && below t up ~ino

let split_parent path =
  match List.rev (split_path path) with
  | [] -> err "cannot operate on the root directory"
  | name :: rev_parent -> ("/" ^ String.concat "/" (List.rev rev_parent), name)

(* ------------------------------------------------------------------ *)
(* Allocation of inodes and blocks                                     *)

let alloc_ino t =
  match Bitmap.first_clear_from t.ino_used Layout.first_user_ino with
  | Some ino when ino < t.max_ino ->
    Bitmap.set t.ino_used ino;
    ino
  | Some _ | None -> err "out of inodes"

let free_block t vbn = Blockmap.mark_free t.bmap vbn

let alloc_block t =
  match Blockmap.find_free t.bmap ~avoid:t.cp_protect ~start:t.alloc_cursor () with
  | Some vbn ->
    Blockmap.mark_allocated t.bmap vbn;
    t.alloc_cursor <- vbn + 1;
    Lru.remove t.lru vbn;
    vbn
  | None -> err "volume full"

(* ------------------------------------------------------------------ *)
(* Consistency points                                                  *)

let compute_protect t =
  let u = Blockmap.active_plane t.bmap in
  List.iter
    (fun (s : Fsinfo.snap_entry) ->
      Bitmap.union_into ~dst:u (Blockmap.plane_copy t.bmap s.plane))
    t.snaps;
  u

(* Flush one ftree: give every dirty data block a fresh home, rebuild the
   indirect chain copy-on-write, and hand the finished inode to
   [write_slot]. *)
let flush_ftree t ft ~write_slot =
  if ft.f_data_dirty || ft.f_meta_dirty || Itbl.length ft.f_dirty > 0 then begin
    let nd = Layout.ndirect and ppb = Layout.ptrs_per_block in
    let dirty =
      Itbl.fold (fun lbn b acc -> (lbn, b) :: acc) ft.f_dirty []
      |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
    in
    List.iter
      (fun (lbn, data) ->
        ftree_grow ft lbn;
        let old = ft.f_ptrs.(lbn) in
        if old <> Layout.no_block then free_block t old;
        let vbn = alloc_block t in
        ft.f_ptrs.(lbn) <- vbn;
        (* the ftree lets go of its block here: [f_dirty] is reset below;
           a lent block goes as it was lent *)
        Hashtbl.replace t.pending vbn (dirty_string data))
      dirty;
    t.dirty_count <- t.dirty_count - Itbl.length ft.f_dirty;
    Itbl.reset ft.f_dirty;
    let inode = ft.f_inode in
    let n = Inode.nblocks inode in
    let inode =
      if ft.f_data_dirty then begin
        (* Copy-on-write rebuild of the whole indirect chain. *)
        List.iter (fun vbn -> free_block t vbn) ft.f_indirects;
        ft.f_indirects <- [];
        let direct =
          Array.init nd (fun i ->
              if i < n && i < Array.length ft.f_ptrs then ft.f_ptrs.(i)
              else Layout.no_block)
        in
        let single =
          if n > nd then begin
            let vbn = alloc_block t in
            Hashtbl.replace t.pending vbn
              (encode_ptr_block ft.f_ptrs nd (Stdlib.min (n - nd) ppb));
            ft.f_indirects <- vbn :: ft.f_indirects;
            vbn
          end
          else Layout.no_block
        in
        let double =
          if n > nd + ppb then begin
            let remaining = n - nd - ppb in
            let nl2 = (remaining + ppb - 1) / ppb in
            let l2 = Array.make ppb Layout.no_block in
            for j = 0 to nl2 - 1 do
              let base = nd + ppb + (j * ppb) in
              let vbn = alloc_block t in
              Hashtbl.replace t.pending vbn
                (encode_ptr_block ft.f_ptrs base (Stdlib.min (n - base) ppb));
              ft.f_indirects <- vbn :: ft.f_indirects;
              l2.(j) <- vbn
            done;
            let dvbn = alloc_block t in
            Hashtbl.replace t.pending dvbn (encode_ptr_block l2 0 nl2);
            ft.f_indirects <- dvbn :: ft.f_indirects;
            dvbn
          end
          else Layout.no_block
        in
        { inode with direct; single; double }
      end
      else inode
    in
    ft.f_inode <- inode;
    ft.f_data_dirty <- false;
    ft.f_meta_dirty <- false;
    write_slot inode
  end

let encode_xattrs attrs =
  let w = Serde.writer () in
  Serde.write_list Serde.U16
    (fun w (k, v) ->
      Serde.write_string w k;
      Serde.write_string w v)
    w attrs;
  Serde.contents w

let decode_xattrs block =
  Serde.read_list Serde.U16
    (fun r ->
      let k = Serde.read_string r in
      (k, Serde.read_string r))
    (Serde.reader block)

let flush_xattrs t =
  let items = Hashtbl.fold (fun ino l acc -> (ino, l) :: acc) t.xattr_dirty [] in
  let items = List.sort compare items in
  List.iter
    (fun (ino, attrs) ->
      let ft = get_ftree t ino in
      if ft.f_inode.Inode.xattr_vbn <> Layout.no_block then
        free_block t ft.f_inode.Inode.xattr_vbn;
      let vbn =
        if attrs = [] then Layout.no_block
        else begin
          let image = encode_xattrs attrs in
          if String.length image > Block.size then
            err "xattrs of inode %d overflow a block" ino;
          let b = Block.zero () in
          Bytes.blit_string image 0 b 0 (String.length image);
          let vbn = alloc_block t in
          Hashtbl.replace t.pending vbn (Bytes.unsafe_to_string b);
          vbn
        end
      in
      set_inode ft { ft.f_inode with xattr_vbn = vbn })
    items;
  Hashtbl.reset t.xattr_dirty

type capture = { cap_name : string; cap_plane : int }

let p_cp = Repro_prof.Prof.probe "wafl.cp"

let take_cp t ?capture () =
  Repro_prof.Prof.with_probe p_cp @@ fun () ->
  alive t;
  (* 0. extended attributes (dirties inodes) *)
  flush_xattrs t;
  (* 1. user files and directories *)
  let users =
    Itbl.fold (fun ino ft acc -> (ino, ft) :: acc) t.ftrees []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  List.iter (fun (ino, ft) -> flush_ftree t ft ~write_slot:(write_inode_slot t ino)) users;
  (* 2. the block-map file: free and reallocate every block now; contents
     are computed in step 5 once allocation has quiesced. *)
  let bm_blocks = Blockmap.file_blocks ~nblocks:t.vol_blocks in
  let bft = t.bmap_file in
  Array.iteri
    (fun lbn vbn ->
      if lbn < bm_blocks && vbn <> Layout.no_block then free_block t vbn)
    bft.f_ptrs;
  ftree_grow bft (bm_blocks - 1);
  for lbn = 0 to bm_blocks - 1 do
    bft.f_ptrs.(lbn) <- alloc_block t
  done;
  bft.f_data_dirty <- true;
  (* Rebuild its indirect chain through the normal path (data blocks are
     already placed; f_dirty is empty). *)
  flush_ftree t bft ~write_slot:(write_inode_slot t Layout.blockmap_ino);
  (* 3. the inode file; its finished inode becomes the new root *)
  flush_ftree t t.inode_file ~write_slot:(fun inode -> t.root <- inode);
  (* 4. snapshot capture, if requested: the plane mirrors exactly the tree
     the new root describes because no further allocation happens. *)
  (match capture with
  | Some { cap_name; cap_plane } ->
    Blockmap.capture_snapshot t.bmap ~plane:cap_plane;
    let entry =
      {
        Fsinfo.snap_id = t.next_snap_id;
        plane = cap_plane;
        snap_name = cap_name;
        created = t.config.now ();
        snap_root = t.root;
      }
    in
    t.next_snap_id <- t.next_snap_id + 1;
    t.snaps <- t.snaps @ [ entry ]
  | None -> ());
  (* 5. block-map file contents from the final planes *)
  for lbn = 0 to bm_blocks - 1 do
    Hashtbl.replace t.pending bft.f_ptrs.(lbn) (Blockmap.encode_file_block t.bmap lbn)
  done;
  (* 6. write everything in one batch in vbn order (full stripes where
     possible). The buffer cache takes the blocks in the order the table
     lists them, as it always has: that order decides what it evicts. A
     list merge sort of the pairs costs a half to a third of an
     [Array.sort] of the vbns plus a table lookup per block. *)
  let batch = Hashtbl.fold (fun vbn b acc -> (vbn, b) :: acc) t.pending [] in
  let n = Hashtbl.length t.pending in
  let vbns = Array.make n 0 and blocks = Array.make n "" in
  List.iteri
    (fun i (vbn, b) ->
      vbns.(i) <- vbn;
      blocks.(i) <- b)
    (List.sort (fun (a, _) (b, _) -> Int.compare a b) batch);
  Volume.write_batch t.vol vbns blocks;
  List.iter (fun (vbn, b) -> Lru.add t.lru vbn b) batch;
  Hashtbl.reset t.pending;
  (* 7. fsinfo, redundantly *)
  t.gen <- t.gen + 1;
  let info =
    {
      Fsinfo.generation = t.gen;
      cp_time = t.config.now ();
      volume_blocks = t.vol_blocks;
      max_inodes = t.max_ino;
      next_snap_id = t.next_snap_id;
      next_qtree = t.next_qtree;
      qtree_limits = Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.qtree_limits [];
      root = t.root;
      snaps = t.snaps;
    }
  in
  let b = Fsinfo.encode info in
  let write_fsinfo vbn ~primary =
    match
      Repro_fault.Fault.on_fsinfo_write ~device:(Volume.label t.vol) ~primary
    with
    | `Ok -> Volume.write t.vol vbn b
    | `Torn ->
      (* Torn write: only the first half of the block reaches the media;
         the tail keeps its previous contents. The CRC catches it and the
         mount falls back to the redundant copy. The old block is stored,
         and may be shared (both copies of the last fsinfo are one
         string), so the tear is made in a copy. *)
      let torn = Bytes.of_string (Volume.read t.vol vbn) in
      Bytes.blit_string b 0 torn 0 (String.length b / 2);
      Volume.write t.vol vbn (Bytes.unsafe_to_string torn)
  in
  write_fsinfo Layout.fsinfo_vbn_primary ~primary:true;
  write_fsinfo Layout.fsinfo_vbn_backup ~primary:false;
  (* 8. epilogue *)
  t.cp_protect <- compute_protect t;
  (match t.nvram with Some nv -> Nvram.clear nv | None -> ());
  t.ops_since_cp <- 0;
  t.dirty_count <- 0

let cp t = take_cp t ()

(* ------------------------------------------------------------------ *)
(* Operation logging and auto-CP                                       *)

let log_op t op =
  match t.nvram with
  | None -> ()
  | Some nv -> (
    charge_nvram t (Nvram.op_size op);
    match Nvram.append nv ~tag:t.gen op with
    | true -> ()
    | false ->
      (* NVRAM full: commit, which clears the log, then retry. *)
      take_cp t ();
      if not (Nvram.append nv ~tag:t.gen op) then err "operation too large for NVRAM"
    | exception Nvram.Failed label ->
      (* Fail-stop: an unprotected mutation must not pretend to be
         logged. The filer runs read-only until the NVRAM is replaced. *)
      err "NVRAM %s has failed: operation not logged" label)

let mutated t =
  t.ops_since_cp <- t.ops_since_cp + 1;
  if
    (not t.replaying)
    && t.config.auto_cp_ops > 0
    && t.ops_since_cp >= t.config.auto_cp_ops
  then take_cp t ()

(* ------------------------------------------------------------------ *)
(* Namespace operations                                                *)

let getattr_ino t ino =
  alive t;
  read_inode t ino

let lookup t path =
  alive t;
  namei_opt t path

let getattr t path =
  alive t;
  read_inode t (namei t path)

let mknod t path ~perms ~kind =
  alive t;
  let parent_path, name = split_parent path in
  if String.length name > Layout.max_name_len then err "name too long";
  let parent = namei t parent_path in
  let pinode = read_inode t parent in
  if pinode.Inode.kind <> Inode.Directory then err "%S: not a directory" parent_path;
  if dir_lookup t parent name <> None then err "%S: file exists" path;
  charge_op t 3;
  let ino = alloc_ino t in
  let old_gen = (read_inode t ino).Inode.gen in
  let inode =
    {
      (Inode.make ~kind ~perms ~qtree:pinode.Inode.qtree ~now:(t.config.now ()) ())
      with
      gen = old_gen + 1;
    }
  in
  write_inode_slot t ino inode;
  let ft = ftree_of_inode t ~ino inode in
  Itbl.replace t.ftrees ino ft;
  dir_add t parent name ino;
  if kind = Inode.Directory then begin
    dir_add t ino "." ino;
    dir_add t ino ".." parent;
    set_inode ft { ft.f_inode with nlink = 2 }
  end;
  ino

let free_ftree_blocks t ft =
  Array.iteri
    (fun lbn vbn ->
      ignore lbn;
      if vbn <> Layout.no_block then free_block t vbn)
    ft.f_ptrs;
  List.iter (fun vbn -> free_block t vbn) ft.f_indirects;
  if ft.f_inode.Inode.xattr_vbn <> Layout.no_block then
    free_block t ft.f_inode.Inode.xattr_vbn;
  t.dirty_count <- t.dirty_count - Itbl.length ft.f_dirty;
  Itbl.reset ft.f_dirty

let drop_inode t ino =
  let ft = get_ftree t ino in
  if ft.f_inode.Inode.kind = Inode.Regular then
    qtree_charge t ft.f_inode.Inode.qtree (-ft.f_inode.Inode.size);
  free_ftree_blocks t ft;
  let gen = ft.f_inode.Inode.gen in
  Itbl.remove t.ftrees ino;
  Hashtbl.remove t.xattr_dirty ino;
  write_inode_slot t ino { Inode.free with gen };
  Bitmap.clear t.ino_used ino

(* Remove one name for a file inode: the inode itself goes away only when
   its last link does. *)
let unlink_ref t ~parent ~name ~ino =
  dir_remove t parent name;
  let ft = get_ftree t ino in
  if ft.f_inode.Inode.nlink > 1 then
    set_inode ft
      { ft.f_inode with nlink = ft.f_inode.Inode.nlink - 1; ctime = t.config.now () }
  else drop_inode t ino

let update_inode t path f =
  alive t;
  let ino = namei t path in
  let ft = get_ftree t ino in
  charge_op t 1;
  set_inode ft (f ft.f_inode);
  mutated t

(* A cursor over the pieces of one write: [cur] is the piece being read
   from [cpos] on, [rest] the pieces after it. *)
type cursor = { mutable cur : string; mutable cpos : int; mutable rest : string list }

(* Step past the consumed and empty pieces. *)
let rec next_piece c =
  if c.cpos = String.length c.cur then
    match c.rest with
    | p :: r ->
      c.cur <- p;
      c.cpos <- 0;
      c.rest <- r;
      next_piece c
    | [] -> ()

(* Copy the next [n] bytes of the pieces into [dst] at [dpos]. *)
let rec copy_pieces c dst dpos n =
  if n > 0 then begin
    next_piece c;
    let k = Stdlib.min n (String.length c.cur - c.cpos) in
    Bytes.blit_string c.cur c.cpos dst dpos k;
    c.cpos <- c.cpos + k;
    copy_pieces c dst (dpos + k) (n - k)
  end

let load_xattrs t ino =
  match Hashtbl.find_opt t.xattr_dirty ino with
  | Some l -> l
  | None ->
    let inode = read_inode t ino in
    if inode.Inode.xattr_vbn = Layout.no_block then []
    else decode_xattrs (vol_read t inode.Inode.xattr_vbn)

(* The length of [encode_xattrs attrs], without encoding: a u16 count,
   then a u32-prefixed name and value per attribute (FORMATS.md §4). *)
let xattrs_size attrs =
  List.fold_left (fun n (k, v) -> n + 8 + String.length k + String.length v) 2 attrs

(* ------------------------------------------------------------------ *)
(* The mutation interpreter                                            *)

(* The one body of every logged mutation: a live call runs its op here
   and then logs it, and mount replays the log through here. The result
   is the inode a [Create_file] or [Mkdir] made; -1 for any other op. *)
let apply t (op : Nvram.op) =
  match op with
  | Create_file { path; perms } ->
    let ino = mknod t path ~perms ~kind:Inode.Regular in
    mutated t;
    ino
  | Mkdir { path; perms } ->
    let ino = mknod t path ~perms ~kind:Inode.Directory in
    mutated t;
    ino
  | Write { path; offset; data = pieces } ->
    alive t;
    if offset < 0 then err "negative offset";
    let ino = namei t path in
    let inode = read_inode t ino in
    if inode.Inode.kind <> Inode.Regular then err "%S: not a regular file" path;
    let ft = get_ftree t ino in
    let len = List.fold_left (fun n p -> n + String.length p) 0 pieces in
    let growth = Stdlib.max 0 (offset + len - ft.f_inode.Inode.size) in
    qtree_check t ft.f_inode.Inode.qtree growth;
    charge_op t 1;
    charge_write t len;
    let c = { cur = ""; cpos = 0; rest = pieces } in
    let pos = ref 0 in
    while !pos < len do
      let abs = offset + !pos in
      let lbn = abs / Block.size in
      let boff = abs mod Block.size in
      let chunk = Stdlib.min (Block.size - boff) (len - !pos) in
      next_piece c;
      if chunk = Block.size && c.cpos = 0 && String.length c.cur = Block.size then begin
        (* a piece that is a whole aligned block is lent, not copied *)
        ftree_write_block t ft lbn (Lent c.cur);
        c.cpos <- Block.size
      end
      else if chunk = Block.size then begin
        (* a whole block: every byte is overwritten, so no zero fill *)
        let block = Bytes.create Block.size in
        copy_pieces c block 0 chunk;
        ftree_write_block t ft lbn (Owned block)
      end
      else copy_pieces c (ftree_own_block t ft lbn) boff chunk;
      pos := !pos + chunk
    done;
    let new_size = Stdlib.max ft.f_inode.Inode.size (offset + len) in
    qtree_charge t ft.f_inode.Inode.qtree growth;
    set_inode ft { ft.f_inode with size = new_size; mtime = t.config.now () };
    mutated t;
    -1
  | Truncate { path; size } ->
    alive t;
    if size < 0 then err "negative size";
    let ino = namei t path in
    let inode = read_inode t ino in
    if inode.Inode.kind <> Inode.Regular then err "%S: not a regular file" path;
    let ft = get_ftree t ino in
    let old_n = Inode.nblocks ft.f_inode in
    let new_n = Block.blocks_for size in
    qtree_check t ft.f_inode.Inode.qtree (size - ft.f_inode.Inode.size);
    qtree_charge t ft.f_inode.Inode.qtree (size - ft.f_inode.Inode.size);
    charge_op t 1;
    for lbn = new_n to old_n - 1 do
      if Itbl.mem ft.f_dirty lbn then begin
        Itbl.remove ft.f_dirty lbn;
        t.dirty_count <- t.dirty_count - 1
      end;
      if lbn < Array.length ft.f_ptrs && ft.f_ptrs.(lbn) <> Layout.no_block then begin
        free_block t ft.f_ptrs.(lbn);
        ft.f_ptrs.(lbn) <- Layout.no_block
      end
    done;
    if new_n > 0 && size mod Block.size <> 0 && size < ft.f_inode.Inode.size then begin
      (* Zero the tail of the final partial block so later extension reads
         zeros, not stale bytes. *)
      let lbn = new_n - 1 in
      let keep = size mod Block.size in
      Bytes.fill (ftree_own_block t ft lbn) keep (Block.size - keep) '\000'
    end;
    ft.f_data_dirty <- true;
    set_inode ft { ft.f_inode with size; mtime = t.config.now () };
    mutated t;
    -1
  | Unlink { path } ->
    alive t;
    let parent_path, name = split_parent path in
    let parent = namei t parent_path in
    let ino =
      match dir_lookup t parent name with Some i -> i | None -> err "%S: no such file" path
    in
    (match (read_inode t ino).Inode.kind with
    | Inode.Regular | Inode.Symlink -> ()
    | Inode.Directory | Inode.Free -> err "%S: not a file" path);
    charge_op t 3;
    unlink_ref t ~parent ~name ~ino;
    mutated t;
    -1
  | Rmdir { path } ->
    alive t;
    let parent_path, name = split_parent path in
    let parent = namei t parent_path in
    let ino =
      match dir_lookup t parent name with
      | Some i -> i
      | None -> err "%S: no such directory" path
    in
    if (read_inode t ino).Inode.kind <> Inode.Directory then
      err "%S: not a directory" path;
    if named (dir_entries t ino) <> [] then err "%S: directory not empty" path;
    charge_op t 3;
    dir_remove t parent name;
    drop_inode t ino;
    mutated t;
    -1
  | Rename { src; dst } ->
    alive t;
    let sparent_path, sname = split_parent src in
    let dparent_path, dname = split_parent dst in
    let sparent = namei t sparent_path in
    let dparent = namei t dparent_path in
    let ino =
      match dir_lookup t sparent sname with Some i -> i | None -> err "%S: no such file" src
    in
    charge_op t 4;
    (match dir_lookup t dparent dname with
    | Some existing when existing = ino ->
      (* Destination is already a link to the same file: POSIX says the
         source name simply goes away (no-op if it IS the source name). *)
      if not (sparent = dparent && String.equal sname dname) then begin
        unlink_ref t ~parent:sparent ~name:sname ~ino;
        mutated t
      end
    | existing ->
      (* a directory moved below itself would be cut off from the root *)
      if sparent <> dparent && below t dparent ~ino then
        err "%S: would move %S below itself" dst src;
      (match existing with
      | Some existing -> (
        match (read_inode t existing).Inode.kind with
        | Inode.Regular | Inode.Symlink ->
          unlink_ref t ~parent:dparent ~name:dname ~ino:existing
        | Inode.Directory -> err "%S: destination is a directory" dst
        | Inode.Free -> err "%S: dangling entry" dst)
      | None -> ());
      dir_remove t sparent sname;
      dir_add t dparent dname ino;
      if (read_inode t ino).Inode.kind = Inode.Directory && sparent <> dparent then
        dir_replace t ino ".." dparent;
      mutated t);
    -1
  | Link { existing; path } ->
    alive t;
    let ino = namei t existing in
    if (read_inode t ino).Inode.kind <> Inode.Regular then
      err "%S: hard links to directories are not allowed" existing;
    let parent_path, name = split_parent path in
    if String.length name > Layout.max_name_len then err "name too long";
    let parent = namei t parent_path in
    if dir_lookup t parent name <> None then err "%S: file exists" path;
    charge_op t 3;
    dir_add t parent name ino;
    let ft = get_ftree t ino in
    set_inode ft
      { ft.f_inode with nlink = ft.f_inode.Inode.nlink + 1; ctime = t.config.now () };
    mutated t;
    -1
  | Symlink { target; path } ->
    alive t;
    if String.length target = 0 || String.length target > Block.size then
      err "bad symlink target";
    let ino = mknod t path ~perms:0o777 ~kind:Inode.Symlink in
    let ft = get_ftree t ino in
    let b = Block.zero () in
    Bytes.blit_string target 0 b 0 (String.length target);
    ftree_write_block t ft 0 (Owned b);
    set_inode ft { ft.f_inode with size = String.length target };
    (* counted once the link is whole, so an auto-CP cannot split it *)
    mutated t;
    -1
  | Set_xattr { path; name; value } ->
    alive t;
    let ino = namei t path in
    let attrs = List.remove_assoc name (load_xattrs t ino) @ [ (name, value) ] in
    if xattrs_size attrs > Block.size then
      err "%S: xattrs would overflow a %d-byte block" path Block.size;
    charge_op t 1;
    charge_write t (String.length name + String.length value);
    Hashtbl.replace t.xattr_dirty ino attrs;
    (* ensure the ftree is loaded so the CP path flushes the inode *)
    ignore (get_ftree t ino);
    mutated t;
    -1
  | Remove_xattr { path; name } ->
    alive t;
    let ino = namei t path in
    charge_op t 1;
    let attrs = load_xattrs t ino in
    if List.mem_assoc name attrs then begin
      Hashtbl.replace t.xattr_dirty ino (List.remove_assoc name attrs);
      ignore (get_ftree t ino);
      mutated t
    end;
    -1
  | Set_dos_flags { path; flags } ->
    update_inode t path (fun i -> { i with dos_flags = flags });
    -1
  | Set_perms { path; perms } ->
    update_inode t path (fun i -> { i with perms });
    -1
  | Set_owner { path; uid; gid } ->
    update_inode t path (fun i -> { i with uid; gid });
    -1
  | Set_qtree { path; qtree } ->
    (* Ids are never handed out twice, also after a replayed
       [qtree_create]. *)
    t.next_qtree <- Stdlib.max t.next_qtree (qtree + 1);
    (* moving a tree root between qtrees moves its accounted bytes *)
    let attr = getattr t path in
    if attr.Inode.kind = Inode.Regular then begin
      qtree_charge t attr.Inode.qtree (-attr.Inode.size);
      qtree_charge t qtree attr.Inode.size
    end;
    update_inode t path (fun i -> { i with qtree });
    -1
  | Set_qtree_limit { path; limit } ->
    let qtree = (getattr t path).Inode.qtree in
    if qtree = 0 then err "%S is not in a quota tree" path;
    (match limit with
    | Some l when l >= 0 -> Hashtbl.replace t.qtree_limits qtree l
    | Some _ -> err "negative quota limit"
    | None -> Hashtbl.remove t.qtree_limits qtree);
    mutated t;
    -1

(* A live mutation: run it, then log it. *)
let perform t op =
  let ino = apply t op in
  log_op t op;
  ino

let run t op = ignore (perform t op : int)

(* ------------------------------------------------------------------ *)
(* Public mutators and queries                                         *)

let create t path ~perms = perform t (Nvram.Create_file { path; perms })
let mkdir t path ~perms = perform t (Nvram.Mkdir { path; perms })

let rec mkdir_p t path =
  if lookup t path = None then begin
    mkdir_parents t path;
    ignore (mkdir t path ~perms:0o755)
  end

and mkdir_parents t path =
  match String.rindex_opt path '/' with
  | None | Some 0 -> ()
  | Some i -> mkdir_p t (String.sub path 0 i)

let unlink t path = run t (Nvram.Unlink { path })
let rmdir t path = run t (Nvram.Rmdir { path })
let rename t src dst = run t (Nvram.Rename { src; dst })
let link t existing path = run t (Nvram.Link { existing; path })
let symlink t ~target path = run t (Nvram.Symlink { target; path })
let writev t path ~offset pieces = run t (Nvram.Write { path; offset; data = pieces })
let write t path ~offset data = writev t path ~offset [ data ]
let truncate t path ~size = run t (Nvram.Truncate { path; size })
let set_perms t path ~perms = run t (Nvram.Set_perms { path; perms })
let set_owner t path ~uid ~gid = run t (Nvram.Set_owner { path; uid; gid })
let set_dos_flags t path ~flags = run t (Nvram.Set_dos_flags { path; flags })

(* Not logged: a crash before the next CP loses it. *)
let set_times t path ~mtime = update_inode t path (fun i -> { i with mtime })

let set_xattr t path ~name ~value = run t (Nvram.Set_xattr { path; name; value })
let remove_xattr t path ~name = run t (Nvram.Remove_xattr { path; name })

let readdir t path =
  alive t;
  let ino = namei t path in
  let inode = read_inode t ino in
  if inode.Inode.kind <> Inode.Directory then err "%S: not a directory" path;
  charge_op t 1;
  named (dir_entries t ino)

let readlink t path =
  alive t;
  let ino = namei t path in
  let ft = get_ftree t ino in
  if ft.f_inode.Inode.kind <> Inode.Symlink then err "%S: not a symlink" path;
  charge_op t 1;
  String.sub (ftree_read_block t ft 0) 0 ft.f_inode.Inode.size

let read t path ~offset ~len =
  alive t;
  if offset < 0 || len < 0 then err "bad read range";
  let ino = namei t path in
  let inode = read_inode t ino in
  if inode.Inode.kind <> Inode.Regular then err "%S: not a regular file" path;
  let ft = get_ftree t ino in
  let size = ft.f_inode.Inode.size in
  let len = Stdlib.max 0 (Stdlib.min len (size - offset)) in
  charge_op t 1;
  charge_read t len;
  let out = Bytes.create len in
  let pos = ref 0 in
  while !pos < len do
    let abs = offset + !pos in
    let lbn = abs / Block.size in
    let boff = abs mod Block.size in
    let chunk = Stdlib.min (Block.size - boff) (len - !pos) in
    Bytes.blit_string (ftree_read_block t ft lbn) boff out !pos chunk;
    pos := !pos + chunk
  done;
  Bytes.unsafe_to_string out

let get_xattr t path ~name =
  alive t;
  let ino = namei t path in
  List.assoc_opt name (load_xattrs t ino)

let xattrs t path =
  alive t;
  load_xattrs t (namei t path)

(* ------------------------------------------------------------------ *)
(* Quota trees                                                         *)

let qtree_create t path ~perms =
  let _ino = mkdir t path ~perms in
  let id = t.next_qtree in
  run t (Nvram.Set_qtree { path; qtree = id });
  id

let qtree_of t path = (getattr t path).Inode.qtree

let qtree_usage t ~qtree =
  match Hashtbl.find_opt t.qtree_used qtree with Some r -> !r | None -> 0

let qtree_limit t ~qtree = Hashtbl.find_opt t.qtree_limits qtree
let set_qtree_limit t path ~limit = run t (Nvram.Set_qtree_limit { path; limit })

let qtree_limit_list t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.qtree_limits []

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)

let find_snap t name =
  List.find_opt (fun (s : Fsinfo.snap_entry) -> String.equal s.snap_name name) t.snaps

let snapshot_create t name =
  alive t;
  if String.length name = 0 || String.length name > Layout.max_snapname_len then
    err "bad snapshot name %S" name;
  if find_snap t name <> None then err "snapshot %S exists" name;
  if List.length t.snaps >= Layout.max_snapshots then
    err "too many snapshots (max %d)" Layout.max_snapshots;
  let used = List.map (fun (s : Fsinfo.snap_entry) -> s.plane) t.snaps in
  let plane =
    let rec pick p =
      if p >= Blockmap.nplanes then err "no free bit plane"
      else if List.mem p used then pick (p + 1)
      else p
    in
    pick 1
  in
  take_cp t ~capture:{ cap_name = name; cap_plane = plane } ()

let snapshot_delete t name =
  alive t;
  match find_snap t name with
  | None -> err "no snapshot %S" name
  | Some entry ->
    t.snaps <-
      List.filter (fun (s : Fsinfo.snap_entry) -> s.snap_id <> entry.snap_id) t.snaps;
    Blockmap.clear_plane t.bmap entry.plane;
    take_cp t ()

let snapshots t =
  List.map
    (fun (s : Fsinfo.snap_entry) ->
      {
        name = s.snap_name;
        id = s.snap_id;
        created = s.created;
        blocks = Blockmap.plane_used t.bmap s.plane;
      })
    t.snaps

let snapshot_entries t = t.snaps

(* ------------------------------------------------------------------ *)
(* Read-only views                                                     *)

module View = struct
  type v = {
    vt : t;
    vroot : Inode.t;
    vmax : int;
    (* per-view caches of materialized trees *)
    vinode_ptrs : int array Lazy.t;
    vtrees : (int, Inode.t * int array) Hashtbl.t;
  }

  (* Views read the volume directly, not through the buffer cache: at the
     paper's scale (188 GB behind 512 MB of RAM) a dump's reads are all
     cache misses, and the scaled-down model must preserve that. *)
  let vread vt vbn = Volume.read vt.vol vbn

  let make vt vroot =
    {
      vt;
      vroot;
      vmax = vt.max_ino;
      vinode_ptrs = lazy (fst (load_ptrs_with ~read:(vread vt) vroot));
      vtrees = Hashtbl.create 64;
    }

  let root_ino _ = Layout.root_ino
  let max_inodes v = v.vmax

  let inode_file_block v lbn =
    let ptrs = Lazy.force v.vinode_ptrs in
    if lbn < Array.length ptrs && ptrs.(lbn) <> Layout.no_block then
      vread v.vt ptrs.(lbn)
    else Block.zeros

  let getattr v ino =
    if ino < 0 || ino >= v.vmax then err "inode %d out of range" ino;
    let lbn, slot = slot_of_ino ino in
    Inode.decode (inode_file_block v lbn) ~pos:(slot * Layout.inode_size)

  let tree v ino =
    match Hashtbl.find_opt v.vtrees ino with
    | Some x -> x
    | None ->
      let inode = getattr v ino in
      let ptrs, _ = load_ptrs_with ~read:(vread v.vt) inode in
      let x = (inode, ptrs) in
      Hashtbl.add v.vtrees ino x;
      x

  let block_present v ino lbn =
    let _, ptrs = tree v ino in
    lbn < Array.length ptrs && ptrs.(lbn) <> Layout.no_block

  let block_address v ino lbn =
    let _, ptrs = tree v ino in
    if lbn < Array.length ptrs && ptrs.(lbn) <> Layout.no_block then Some ptrs.(lbn)
    else None

  let file_block v ino lbn =
    let _, ptrs = tree v ino in
    if lbn < Array.length ptrs && ptrs.(lbn) <> Layout.no_block then begin
      charge_read v.vt Block.size;
      Some (vread v.vt ptrs.(lbn))
    end
    else None

  let read v ino ~offset ~len =
    let inode, ptrs = tree v ino in
    let size = inode.Inode.size in
    let len = Stdlib.max 0 (Stdlib.min len (size - offset)) in
    charge_read v.vt len;
    let out = Bytes.create len in
    let pos = ref 0 in
    while !pos < len do
      let abs = offset + !pos in
      let lbn = abs / Block.size in
      let boff = abs mod Block.size in
      let chunk = Stdlib.min (Block.size - boff) (len - !pos) in
      let block =
        if lbn < Array.length ptrs && ptrs.(lbn) <> Layout.no_block then
          vread v.vt ptrs.(lbn)
        else Block.zeros
      in
      Bytes.blit_string block boff out !pos chunk;
      pos := !pos + chunk
    done;
    Bytes.unsafe_to_string out

  let readdir v ino =
    let inode, ptrs = tree v ino in
    if inode.Inode.kind <> Inode.Directory then err "inode %d: not a directory" ino;
    let n = Inode.nblocks inode in
    let acc = ref [] in
    for lbn = 0 to n - 1 do
      let b =
        if lbn < Array.length ptrs && ptrs.(lbn) <> Layout.no_block then
          vread v.vt ptrs.(lbn)
        else Block.zeros
      in
      acc := !acc @ Dir.entries b
    done;
    named !acc

  let xattrs v ino =
    let inode = getattr v ino in
    if inode.Inode.xattr_vbn = Layout.no_block then []
    else decode_xattrs (vread v.vt inode.Inode.xattr_vbn)

  let lookup v path =
    let rec walk ino = function
      | [] -> Some ino
      | comp :: rest -> (
        match List.assoc_opt comp (readdir v ino) with
        | Some next -> walk next rest
        | None -> None)
    in
    walk Layout.root_ino (split_path path)
end

let active_view t =
  alive t;
  take_cp t ();
  View.make t t.root

let snapshot_view t name =
  alive t;
  match find_snap t name with
  | Some s -> View.make t s.Fsinfo.snap_root
  | None -> err "no snapshot %S" name

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)

let build t_vol config nvram info =
  let vol_blocks = info.Fsinfo.volume_blocks in
  let bmap = Blockmap.create ~nblocks:vol_blocks in
  let dummy_ft inode =
    {
      f_ino = -1;
      f_inode = inode;
      f_ptrs = [||];
      f_dirty = Itbl.create 16;
      f_indirects = [];
      f_meta_dirty = false;
      f_data_dirty = false;
    }
  in
  {
    vol = t_vol;
    config;
    nvram;
    bmap;
    cp_protect = Bitmap.create vol_blocks;
    root = info.Fsinfo.root;
    gen = info.Fsinfo.generation;
    vol_blocks;
    max_ino = info.Fsinfo.max_inodes;
    next_snap_id = info.Fsinfo.next_snap_id;
    next_qtree = info.Fsinfo.next_qtree;
    qtree_used = Hashtbl.create 8;
    qtree_limits =
      (let h = Hashtbl.create 8 in
       List.iter (fun (k, v) -> Hashtbl.replace h k v) info.Fsinfo.qtree_limits;
       h);
    snaps = info.Fsinfo.snaps;
    inode_file = dummy_ft info.Fsinfo.root;
    bmap_file = dummy_ft Inode.free;
    ftrees = Itbl.create 64;
    xattr_dirty = Hashtbl.create 8;
    ino_used = Bitmap.create info.Fsinfo.max_inodes;
    lru = Lru.create ~capacity:4096;
    pending = Hashtbl.create 64;
    alloc_cursor = 2;
    ops_since_cp = 0;
    dirty_count = 0;
    replaying = false;
    dead = false;
  }

let p_mkfs = Repro_prof.Prof.probe "wafl.mkfs"

let mkfs ?config ?nvram vol =
  Repro_prof.Prof.with_probe p_mkfs @@ fun () ->
  let config = match config with Some c -> c | None -> default_config () in
  let vol_blocks = Volume.size_blocks vol in
  if vol_blocks < 64 then err "volume too small";
  let max_ino =
    let m = Stdlib.max 1024 (vol_blocks / 4) in
    (m / Layout.inodes_per_block) * Layout.inodes_per_block
  in
  let now = config.now () in
  let root_dir = Inode.make ~kind:Inode.Directory ~perms:0o755 ~now () in
  let info =
    {
      Fsinfo.generation = 0;
      cp_time = now;
      volume_blocks = vol_blocks;
      max_inodes = max_ino;
      next_snap_id = 1;
      next_qtree = 1;
      qtree_limits = [];
      root = Inode.free;
      snaps = [];
    }
  in
  let t = build vol config nvram info in
  (* fsinfo copies permanently occupy vbns 0 and 1 *)
  Blockmap.mark_allocated t.bmap Layout.fsinfo_vbn_primary;
  Blockmap.mark_allocated t.bmap Layout.fsinfo_vbn_backup;
  Bitmap.set t.cp_protect Layout.fsinfo_vbn_primary;
  Bitmap.set t.cp_protect Layout.fsinfo_vbn_backup;
  for ino = 0 to Layout.first_user_ino - 1 do
    Bitmap.set t.ino_used ino
  done;
  (* the inode file: fixed logical size, all holes initially *)
  let if_blocks = max_ino / Layout.inodes_per_block in
  t.inode_file.f_inode <-
    { (Inode.make ~kind:Inode.Regular ~perms:0o600 ~now ()) with
      size = if_blocks * Block.size };
  t.inode_file.f_meta_dirty <- true;
  (* the block-map file *)
  let bm_blocks = Blockmap.file_blocks ~nblocks:vol_blocks in
  t.bmap_file.f_inode <-
    { (Inode.make ~kind:Inode.Regular ~perms:0o600 ~now ()) with
      size = bm_blocks * Block.size };
  write_inode_slot t Layout.blockmap_ino t.bmap_file.f_inode;
  (* the root directory *)
  write_inode_slot t Layout.root_ino { root_dir with nlink = 2 };
  let root_ft = ftree_of_inode t ~ino:Layout.root_ino { root_dir with nlink = 2 } in
  Itbl.replace t.ftrees Layout.root_ino root_ft;
  dir_add t Layout.root_ino "." Layout.root_ino;
  dir_add t Layout.root_ino ".." Layout.root_ino;
  take_cp t ();
  t

let read_fsinfo vol =
  let try_read vbn =
    try Fsinfo.decode (Volume.read vol vbn) with Invalid_argument _ -> None
  in
  match (try_read Layout.fsinfo_vbn_primary, try_read Layout.fsinfo_vbn_backup) with
  | Some a, Some b -> Some (if a.Fsinfo.generation >= b.Fsinfo.generation then a else b)
  | Some a, None -> Some a
  | None, Some b -> Some b
  | None, None -> None

let mount ?config ?nvram vol =
  let config = match config with Some c -> c | None -> default_config () in
  match read_fsinfo vol with
  | None -> err "no valid fsinfo block: not a WAFL volume (or both copies damaged)"
  | Some info ->
    let t = build vol config nvram info in
    (* the block-map file tree, via inode 3 read through the root *)
    let if_ptrs, if_indirects = load_ptrs t info.Fsinfo.root in
    t.inode_file.f_ptrs <- if_ptrs;
    t.inode_file.f_indirects <- if_indirects;
    let lbn, slot = slot_of_ino Layout.blockmap_ino in
    let bm_inode =
      let b =
        if lbn < Array.length if_ptrs && if_ptrs.(lbn) <> Layout.no_block then
          vol_read t if_ptrs.(lbn)
        else Block.zeros
      in
      Inode.decode b ~pos:(slot * Layout.inode_size)
    in
    let bm_ptrs, bm_indirects = load_ptrs t bm_inode in
    t.bmap_file.f_inode <- bm_inode;
    t.bmap_file.f_ptrs <- bm_ptrs;
    t.bmap_file.f_indirects <- bm_indirects;
    (* load the planes *)
    let bm_blocks = Blockmap.file_blocks ~nblocks:t.vol_blocks in
    for l = 0 to bm_blocks - 1 do
      let b =
        if l < Array.length bm_ptrs && bm_ptrs.(l) <> Layout.no_block then
          vol_read t bm_ptrs.(l)
        else Block.zeros
      in
      Blockmap.load_file_block t.bmap l b
    done;
    (* Clear orphan planes: bit planes not referenced by any snapshot in
       the fsinfo table (left behind by a crashed snapshot delete, or by an
       incremental image restore that had to drop a partially-covered
       snapshot). Their blocks become free again. *)
    let referenced = List.map (fun (s : Fsinfo.snap_entry) -> s.plane) t.snaps in
    for p = 1 to Blockmap.nplanes - 1 do
      if not (List.mem p referenced) then Blockmap.clear_plane t.bmap p
    done;
    t.cp_protect <- compute_protect t;
    (* inode usage scan *)
    for ino = 0 to t.max_ino - 1 do
      if ino < Layout.first_user_ino then Bitmap.set t.ino_used ino
      else begin
        let lbn, slot = slot_of_ino ino in
        let b = ftree_read_block t t.inode_file lbn in
        let inode = Inode.decode b ~pos:(slot * Layout.inode_size) in
        if not (Inode.is_free inode) then begin
          Bitmap.set t.ino_used ino;
          (* rebuild per-qtree usage on the way through *)
          if inode.Inode.kind = Inode.Regular then
            qtree_charge t inode.Inode.qtree inode.Inode.size
        end
      end
    done;
    (* NVRAM replay: operations logged since the generation we mounted *)
    (match nvram with
    | Some nv ->
      let ops = Nvram.entries_tagged nv ~tag:t.gen in
      if ops <> [] then begin
        t.replaying <- true;
        List.iter
          (fun op -> try ignore (apply t op : int) with Error _ -> () (* idempotent replay *))
          ops;
        t.replaying <- false;
        take_cp t ()
      end
    | None -> ());
    t

let crash t =
  t.dead <- true;
  Itbl.reset t.ftrees;
  Hashtbl.reset t.xattr_dirty;
  Hashtbl.reset t.pending;
  Lru.clear t.lru

let generation t = t.gen
let now t = t.config.now ()
let volume t = t.vol
let config_of t = t.config
let max_inodes t = t.max_ino
let size_blocks t = t.vol_blocks
let used_blocks t = Blockmap.active_used t.bmap

let free_blocks t = Blockmap.free_count t.bmap

let blockmap t = t.bmap

let inode_count t = Bitmap.count t.ino_used

(* ------------------------------------------------------------------ *)
(* fsck                                                                *)

let fsck_with t ~repair =
  alive t;
  take_cp t ();
  let repairs = ref [] in
  let repaired fmt = Format.kasprintf (fun m -> repairs := m :: !repairs) fmt in
  let problems = ref [] in
  let problem fmt = Format.kasprintf (fun s -> problems := s :: !problems) fmt in
  let reach = Bitmap.create t.vol_blocks in
  Bitmap.set reach Layout.fsinfo_vbn_primary;
  Bitmap.set reach Layout.fsinfo_vbn_backup;
  let mark what vbn =
    if vbn < 0 || vbn >= t.vol_blocks then problem "%s: vbn %d out of range" what vbn
    else if Bitmap.get reach vbn then problem "%s: vbn %d doubly referenced" what vbn
    else Bitmap.set reach vbn
  in
  let mark_tree what inode =
    let ptrs, indirects = load_ptrs t inode in
    let n = Inode.nblocks inode in
    Array.iteri
      (fun lbn vbn -> if lbn < n && vbn <> Layout.no_block then mark what vbn)
      ptrs;
    List.iter (fun vbn -> mark (what ^ " indirect") vbn) indirects;
    if inode.Inode.xattr_vbn <> Layout.no_block then
      mark (what ^ " xattr") inode.Inode.xattr_vbn
  in
  mark_tree "inode file" t.root;
  (* every allocated inode *)
  for ino = Layout.root_ino to t.max_ino - 1 do
    let lbn, slot = slot_of_ino ino in
    let b = ftree_read_block t t.inode_file lbn in
    let inode = Inode.decode b ~pos:(slot * Layout.inode_size) in
    if not (Inode.is_free inode) then
      mark_tree (Printf.sprintf "inode %d" ino) inode
  done;
  let active = Blockmap.active_plane t.bmap in
  if not (Bitmap.equal reach active) then begin
    let leaked = Bitmap.diff active reach in
    let missing = Bitmap.diff reach active in
    if not (Bitmap.is_empty leaked) then
      problem "%d blocks allocated but unreachable (first: %s)" (Bitmap.count leaked)
        (match Bitmap.first_set_from leaked 0 with
        | Some v -> string_of_int v
        | None -> "?");
    if not (Bitmap.is_empty missing) then
      problem "%d blocks reachable but not allocated (first: %s)"
        (Bitmap.count missing)
        (match Bitmap.first_set_from missing 0 with
        | Some v -> string_of_int v
        | None -> "?");
    if repair then begin
      (* the reachable set is the truth: reconcile plane 0 with it *)
      Bitmap.iter_set
        (fun vbn ->
          Blockmap.mark_free t.bmap vbn;
          repaired "freed leaked vbn %d" vbn)
        leaked;
      Bitmap.iter_set
        (fun vbn ->
          Blockmap.mark_allocated t.bmap vbn;
          repaired "re-allocated reachable vbn %d" vbn)
        missing
    end
  end;
  (* directory structure and link counts *)
  let refs : (int, int) Hashtbl.t = Hashtbl.create 256 in
  let bump child =
    Hashtbl.replace refs child (1 + Option.value ~default:0 (Hashtbl.find_opt refs child))
  in
  let seen_dirs : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  let rec check_dir ino =
    if not (Hashtbl.mem seen_dirs ino) then begin
      Hashtbl.replace seen_dirs ino ();
      let entries = dir_entries t ino in
      List.iter
        (fun (name, child) ->
          if String.equal name "." || String.equal name ".." then ()
          else begin
            let cinode = read_inode t child in
            if Inode.is_free cinode then begin
              problem "dirent %S in inode %d points at free inode %d" name ino child;
              if repair then begin
                dir_remove t ino name;
                repaired "removed dangling dirent %S from inode %d" name ino
              end
            end
            else begin
              bump child;
              if cinode.Inode.kind = Inode.Directory then check_dir child
            end
          end)
        entries
    end
  in
  check_dir Layout.root_ino;
  Hashtbl.iter
    (fun ino count ->
      let inode = read_inode t ino in
      if inode.Inode.kind = Inode.Regular && inode.Inode.nlink <> count then begin
        problem "inode %d: nlink %d but %d directory entries" ino inode.Inode.nlink
          count;
        if repair then begin
          let ft = get_ftree t ino in
          set_inode ft { ft.f_inode with nlink = count };
          write_inode_slot t ino ft.f_inode;
          repaired "fixed nlink of inode %d to %d" ino count
        end
      end)
    refs;
  if repair && !repairs <> [] then take_cp t ();
  let problems = List.rev !problems and repairs = List.rev !repairs in
  (problems, repairs)

let fsck t =
  match fsck_with t ~repair:false with
  | [], _ -> Ok ()
  | problems, _ -> Result.error problems

let fsck_repair t =
  let _, repairs = fsck_with t ~repair:true in
  repairs

module Private = struct
  let charge_op = charge_op
  let dir_iter_blocks t dir_ino f = dir_iter_blocks t (get_ftree t dir_ino) f
end

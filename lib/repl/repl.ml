module Volume = Repro_block.Volume
module Persist = Repro_block.Persist
module Fs = Repro_wafl.Fs
module Inode = Repro_wafl.Inode
module Tapeio = Repro_tape.Tapeio
module Image_dump = Repro_image.Image_dump
module Image_restore = Repro_image.Image_restore
module Link = Repro_net.Link
module Session = Repro_net.Session
module Mover = Repro_net.Mover
module Clock = Repro_sim.Clock
module Obs = Repro_obs.Obs
module Serde = Repro_util.Serde

exception Error of string
exception Snapshot_gap of { node : string; base : string }

let errorf fmt = Format.kasprintf (fun m -> raise (Error m)) fmt

type state = Uninitialized | Syncing | In_sync | Diverged | Resyncing

let state_name = function
  | Uninitialized -> "uninitialized"
  | Syncing -> "syncing"
  | In_sync -> "in-sync"
  | Diverged -> "diverged"
  | Resyncing -> "resyncing"

type transfer = {
  xfer_src : string;
  xfer_dst : string;
  xfer_snapshot : string;
  xfer_kind : [ `Full | `Incremental ];
  xfer_payload_bytes : int;
  xfer_wire_s : float;
  xfer_apply_s : float;
  xfer_retransmits : int;
}

type promotion = {
  promoted : string;
  rpo_s : float;
  rto_s : float;
  divergence_base : string option;
}

type status = {
  st_name : string;
  st_role : [ `Primary | `Replica ];
  st_state : state;
  st_last : string option;
  st_lag_s : float;
  st_upstream : string option;
}

(* The node created as primary keeps an externally owned (engine-store)
   file system; replicas own their volume and mount lazily, because an
   image apply writes the volume underneath any cached mount. *)
type backing =
  | Live of { mutable lfs : Fs.t }
  | Owned of { ovol : Volume.t; mutable ofs : Fs.t option }

type node = {
  n_name : string;
  mutable n_state : state;
  mutable n_last : string option;  (* last replicated checkpoint *)
  mutable n_divergence : string option;
  n_backing : backing;
}

type edge = {
  mutable e_up : string;
  mutable e_down : string;
  e_link : Link.t;
  mutable e_session : Session.t option;
  e_interval_s : float;
  mutable e_next_due : float;
}

type t = {
  clock : Clock.t;
  origin : string;  (* the Live node; its fs is externally owned *)
  mutable root : string;  (* current primary *)
  mutable nodes : node list;  (* creation order *)
  mutable edges : edge list;  (* creation order *)
  snap_times : (string, float) Hashtbl.t;  (* checkpoint -> clock time *)
  mutable seq : int;  (* checkpoint counter, monotonic across promotions *)
}

let node t name =
  match List.find_opt (fun n -> n.n_name = name) t.nodes with
  | Some n -> n
  | None -> errorf "replication: unknown node %s" name

let volume_of n =
  match n.n_backing with Live b -> Fs.volume b.lfs | Owned o -> o.ovol

let fs_of n =
  match n.n_backing with
  | Live b -> b.lfs
  | Owned o -> (
    match o.ofs with
    | Some f -> f
    | None ->
      let f = Fs.mount o.ovol in
      o.ofs <- Some f;
      f)

(* Drop (or refresh) any mount of a volume an image apply just rewrote. *)
let invalidate n =
  match n.n_backing with
  | Live b -> b.lfs <- Fs.mount (Fs.volume b.lfs)
  | Owned o -> o.ofs <- None

let parent_edge t name = List.find_opt (fun e -> e.e_down = name) t.edges

let create ?clock ~primary fs =
  {
    clock = (match clock with Some c -> c | None -> Clock.create ());
    origin = primary;
    root = primary;
    nodes =
      [
        {
          n_name = primary;
          n_state = In_sync;
          n_last = None;
          n_divergence = None;
          n_backing = Live { lfs = fs };
        };
      ];
    edges = [];
    snap_times = Hashtbl.create 16;
    seq = 0;
  }

let clock t = t.clock
let primary t = t.root
let fs t ~name = fs_of (node t name)
let volume t ~name = volume_of (node t name)

let add_replica t ?params ?(interval_s = 0.0) ~upstream ~name () =
  if not (Float.is_finite interval_s && interval_s >= 0.0) then
    errorf "replication: interval for %s must be finite and >= 0, not %g" name interval_s;
  if List.exists (fun n -> n.n_name = name) t.nodes then
    errorf "replication: duplicate node %s" name;
  let up = node t upstream in
  let vol = Volume.create ~label:name (Volume.geometry_of (volume_of up)) in
  let link = Link.create ?params ~label:name () in
  t.nodes <-
    t.nodes
    @ [
        {
          n_name = name;
          n_state = Uninitialized;
          n_last = None;
          n_divergence = None;
          n_backing = Owned { ovol = vol; ofs = None };
        };
      ];
  t.edges <-
    t.edges
    @ [
        {
          e_up = upstream;
          e_down = name;
          e_link = link;
          e_session = None;
          e_interval_s = interval_s;
          e_next_due =
            (if interval_s > 0.0 then Clock.now t.clock +. interval_s
             else infinity);
        };
      ]

(* ------------------------------------------------------------------ *)
(* Checkpoints                                                         *)

(* Checkpoints the topology has shipped or could ship, in creation
   order, restricted to those [fs] still holds. *)
let checkpoints_on t fs =
  Fs.snapshots fs
  |> List.filter_map (fun (s : Fs.snap_info) ->
         match Hashtbl.find_opt t.snap_times s.Fs.name with
         | Some at -> Some (s.Fs.name, at)
         | None -> None)
  |> List.sort (fun (_, a) (_, b) -> compare a b)

let newest_primary_checkpoint t =
  match List.rev (checkpoints_on t (fs_of (node t t.root))) with
  | newest :: _ -> Some newest
  | [] -> None

let lag_s t ~name =
  let n = node t name in
  if name = t.root then 0.0
  else
    match newest_primary_checkpoint t with
    | None -> 0.0
    | Some (newest, at) -> (
      match n.n_last with
      | Some l when l = newest -> 0.0
      | Some l when Hashtbl.mem t.snap_times l ->
        Float.max 0.0 (at -. Hashtbl.find t.snap_times l)
      | _ -> at)

(* ------------------------------------------------------------------ *)
(* Shipping one snapshot over one edge                                 *)

let session_of e =
  match e.e_session with
  | Some s -> s
  | None ->
    let s = Session.connect ~host:(Link.label e.e_link) e.e_link in
    e.e_session <- Some s;
    s

(* The recovery point available right now: if the primary died at this
   instant, a promotion would land on the most current replica, so the
   estimated RPO is the minimum lag across replicas. Exported to the obs
   plane as the [repl.rpo_est_s] gauge and series after every transfer,
   which is what SLO rules bind to — the realized [repl.rpo_s] gauge is
   only known at promotion. *)
let rpo_estimate_s t =
  match List.filter (fun n -> n.n_name <> t.root) t.nodes with
  | [] -> 0.0
  | repls ->
    List.fold_left
      (fun acc n -> Float.min acc (lag_s t ~name:n.n_name))
      Float.infinity repls

let gauge_rpo_est t =
  let est = rpo_estimate_s t in
  Obs.set_gauge "repl.rpo_est_s" est;
  Obs.sample ~at:(Clock.now t.clock) "repl.rpo_est_s" est

let gauge_lag t name =
  let v = lag_s t ~name in
  let key = "repl.lag_s." ^ name in
  Obs.set_gauge key v;
  Obs.sample ~at:(Clock.now t.clock) key v;
  gauge_rpo_est t

(* A primary with every snapshot slot taken retires its oldest checkpoint
   when it is older than each replica's last one. A replica's next
   incremental is based on its last checkpoint, which its upstream must
   hold, and a replica upstream holds a copy of the primary's snapshot
   table, so cascade replicas bound it too. A base of unknown age pins
   every checkpoint. Below the limit nothing is retired. *)
let retire t fs =
  if List.length (Fs.snapshots fs) >= Repro_wafl.Layout.max_snapshots then
    let bound =
      List.fold_left
        (fun acc n ->
          match n.n_last with
          | Some l when n.n_name <> t.root -> (
            match Hashtbl.find_opt t.snap_times l with
            | Some at -> Float.min acc at
            | None -> neg_infinity)
          | _ -> acc)
        infinity t.nodes
    in
    match checkpoints_on t fs with
    | (oldest, at) :: _ when at < bound ->
      Fs.snapshot_delete fs oldest;
      Obs.instant "repl.retire"
        ~attrs:[ ("snapshot", Obs.Str oldest); ("node", Obs.Str t.root) ]
    | _ -> ()

(* The checkpoint samples the recovery-point estimate too: during a
   partition no transfer completes, so without this the rpo_est series
   would sit frozen at its last healthy value while the real recovery
   point drifts — exactly the window an SLO rule needs to see. *)
let checkpoint t =
  let p = node t t.root in
  retire t (fs_of p);
  t.seq <- t.seq + 1;
  let name = Printf.sprintf "repl.%d" t.seq in
  Fs.snapshot_create (fs_of p) name;
  Hashtbl.replace t.snap_times name (Clock.now t.clock);
  Obs.instant "repl.checkpoint"
    ~attrs:[ ("snapshot", Obs.Str name); ("node", Obs.Str t.root) ];
  gauge_rpo_est t;
  name

let ship t e ~src ~dst ~base ~snapshot =
  let kind = match base with None -> `Full | Some _ -> `Incremental in
  Obs.with_span "repl.xfer"
    ~attrs:
      [
        ("src", Obs.Str src.n_name);
        ("dst", Obs.Str dst.n_name);
        ("snapshot", Obs.Str snapshot);
        ("kind", Obs.Str (match kind with `Full -> "full" | _ -> "incremental"));
      ]
    (fun () ->
      let sfs = fs_of src in
      let session = session_of e in
      let recs = Queue.create () in
      let t0 = Session.now session in
      (* Dump straight into the session; the far side reassembles records
         into [recs]. A fault-plane exception (partition, retransmit
         exhaustion) aborts the stream mid-dump: the queue is discarded
         and the replica stays at its last completed snapshot. *)
      let shipment =
        try
          let sh, sink =
            Mover.ship_to
              ~label:(Printf.sprintf "repl:%s->%s" src.n_name dst.n_name)
              ~session
              { Tapeio.be_put = (fun r -> Queue.push r recs); be_mark = ignore }
          in
          ignore
            (match base with
            | None -> Image_dump.full ~fs:sfs ~snapshot ~sink ()
            | Some b -> Image_dump.incremental ~fs:sfs ~base:b ~snapshot ~sink ());
          Clock.advance t.clock (Session.now session -. t0);
          sh
        with ex ->
          Clock.advance t.clock (Session.now session -. t0);
          Obs.instant "repl.interrupted"
            ~attrs:
              [ ("dst", Obs.Str dst.n_name); ("snapshot", Obs.Str snapshot) ];
          raise ex
      in
      let x =
        match Mover.xfer shipment with
        | Some x -> x
        | None -> errorf "replication: %s stream never closed" dst.n_name
      in
      let dvol = volume_of dst in
      let busy0 = Volume.busy_seconds dvol in
      (try
         ignore
           (Image_restore.apply ~volume:dvol
              (Tapeio.source_of (fun () -> Queue.take_opt recs)));
         invalidate dst
       with ex ->
         (* The destination broke mid-apply (dead drives): the volume is
            half-written and the replica must be rebuilt from scratch. *)
         dst.n_state <- Uninitialized;
         dst.n_last <- None;
         (match dst.n_backing with Owned o -> o.ofs <- None | Live _ -> ());
         Clock.advance t.clock (Volume.busy_seconds dvol -. busy0);
         raise ex);
      let apply_s = Volume.busy_seconds dvol -. busy0 in
      Clock.advance t.clock apply_s;
      dst.n_last <- Some snapshot;
      gauge_lag t dst.n_name;
      {
        xfer_src = src.n_name;
        xfer_dst = dst.n_name;
        xfer_snapshot = snapshot;
        xfer_kind = kind;
        xfer_payload_bytes = x.Session.xf_bytes;
        xfer_wire_s = Session.now session -. t0;
        xfer_apply_s = apply_s;
        xfer_retransmits = x.Session.xf_retransmits;
      })

(* Catch [e.e_down] up with [e.e_up]: full transfer of the newest
   checkpoint when the replica holds nothing, else one incremental per
   missing checkpoint, oldest first. *)
let catch_up t e =
  let src = node t e.e_up and dst = node t e.e_down in
  if dst.n_state = Diverged then
    errorf "replication: %s has diverged; resync it" dst.n_name;
  let ups = checkpoints_on t (fs_of src) in
  match List.rev ups with
  | [] -> []
  | (newest, _) :: _ -> (
    let working = if dst.n_state = Resyncing then Resyncing else Syncing in
    match dst.n_last with
    | None ->
      dst.n_state <- working;
      let x = ship t e ~src ~dst ~base:None ~snapshot:newest in
      dst.n_state <- In_sync;
      [ x ]
    | Some last ->
      let rec after = function
        | (n, _) :: rest when n = last -> rest
        | _ :: rest -> after rest
        | [] -> raise (Snapshot_gap { node = dst.n_name; base = last })
      in
      let pending = after ups in
      if pending = [] then begin
        dst.n_state <- In_sync;
        []
      end
      else begin
        dst.n_state <- working;
        let xs =
          List.map
            (fun (snap, _) ->
              let base = dst.n_last in
              ship t e ~src ~dst ~base ~snapshot:snap)
            pending
        in
        dst.n_state <- In_sync;
        xs
      end)

let sync t ~name =
  match parent_edge t name with
  | None -> errorf "replication: %s has no upstream" name
  | Some e -> catch_up t e

let run_until t horizon =
  let failures = ref [] and stalled = ref [] in
  let rec loop () =
    let due =
      List.filter
        (fun e -> e.e_next_due <= horizon && not (List.memq e !stalled))
        t.edges
      |> List.sort (fun a b ->
             compare (a.e_next_due, a.e_down) (b.e_next_due, b.e_down))
    in
    match due with
    | [] -> ()
    | e :: _ ->
      let at = e.e_next_due in
      if Clock.now t.clock < at then Clock.advance_to t.clock at;
      e.e_next_due <- at +. e.e_interval_s;
      (try
         if e.e_up = t.root then ignore (checkpoint t);
         ignore (catch_up t e)
       with ex -> failures := (e.e_down, ex) :: !failures);
      (* An interval below the float spacing at [at] leaves the edge due
         at [at] for ever: fire it no more in this call. *)
      if e.e_next_due <= at then begin
        stalled := e :: !stalled;
        failures :=
          ( e.e_down,
            Error
              (Printf.sprintf
                 "replication: schedule of %s stalls at %.17g s (interval %g s)"
                 e.e_down at e.e_interval_s) )
          :: !failures
      end;
      loop ()
  in
  loop ();
  if Clock.now t.clock < horizon then Clock.advance_to t.clock horizon;
  List.rev !failures

(* ------------------------------------------------------------------ *)
(* Disaster recovery                                                   *)

let promote t ~name =
  if name = t.root then errorf "replication: %s is already primary" name;
  let n = node t name in
  let last =
    match n.n_last with
    | Some l -> l
    | None -> errorf "replication: cannot promote uninitialized %s" name
  in
  let now = Clock.now t.clock in
  let rpo =
    match Hashtbl.find_opt t.snap_times last with
    | Some at -> Float.max 0.0 (now -. at)
    | None -> now
  in
  (* Re-root: reverse the edges on the path old-root → [name]; links,
     labels and schedules stay put, only direction flips. *)
  let rec path acc cur =
    if cur = t.root then acc
    else
      match parent_edge t cur with
      | Some e -> path (e :: acc) e.e_up
      | None -> errorf "replication: %s is not connected to %s" name t.root
  in
  List.iter
    (fun e ->
      let u = e.e_up in
      e.e_up <- e.e_down;
      e.e_down <- u)
    (path [] name);
  let old = node t t.root in
  old.n_state <- Diverged;
  old.n_divergence <- Some last;
  t.root <- name;
  n.n_divergence <- Some last;
  (* RTO: a fresh, fsck-clean writable mount of the promoted volume. *)
  let vol = volume_of n in
  let busy0 = Volume.busy_seconds vol in
  (match n.n_backing with Owned o -> o.ofs <- None | Live _ -> ());
  let f = fs_of n in
  (match Fs.fsck f with
  | Ok () -> ()
  | Error probs ->
    errorf "replication: promoted %s does not mount clean: %s" name
      (String.concat "; " probs));
  let rto = Volume.busy_seconds vol -. busy0 in
  Clock.advance t.clock rto;
  n.n_state <- In_sync;
  Obs.set_gauge "repl.rpo_s" rpo;
  Obs.set_gauge "repl.rto_s" rto;
  Obs.instant "repl.promote"
    ~attrs:
      [
        ("node", Obs.Str name);
        ("rpo_s", Obs.Float rpo);
        ("rto_s", Obs.Float rto);
      ];
  { promoted = name; rpo_s = rpo; rto_s = rto; divergence_base = Some last }

let resync t ~name =
  if name = t.root then errorf "replication: %s is primary" name;
  let n = node t name in
  let e =
    match parent_edge t name with
    | Some e -> e
    | None -> errorf "replication: %s has no upstream" name
  in
  let up = node t e.e_up in
  let prev = n.n_state in
  n.n_state <- Resyncing;
  Obs.instant "repl.resync" ~attrs:[ ("node", Obs.Str name) ];
  (* The newest checkpoint both sides still hold is the resync
     boundary: copy-on-write kept its blocks immutable through the
     divergence, so shipping the plane difference from there makes the
     replica identical to the upstream. No surviving boundary (or an
     unmountable replica) means a full transfer. *)
  let common =
    (* [prev = Uninitialized] covers both a replica that never completed
       its first transfer and one whose apply died mid-write; a diverged
       old primary carries [n_last = None] yet still holds every
       checkpoint it created, so only the state gates the search. *)
    if prev = Uninitialized then None
    else
      match
        try
          let mine = List.map fst (checkpoints_on t (fs_of n)) in
          List.rev (checkpoints_on t (fs_of up))
          |> List.find_opt (fun (s, _) -> List.mem s mine)
        with Fs.Error _ | Serde.Corrupt _ -> None
      with
      | Some (s, _) -> Some s
      | None -> None
  in
  n.n_last <- common;
  let xs =
    try catch_up t e
    with Snapshot_gap _ ->
      n.n_last <- None;
      catch_up t e
  in
  n.n_divergence <- None;
  gauge_lag t name;
  xs

(* ------------------------------------------------------------------ *)
(* Verification: any-point-in-time byte equality                       *)

let view_diffs ~limit pv nv =
  let module V = Fs.View in
  let diffs = ref [] and count = ref 0 in
  let add fmt =
    Format.kasprintf
      (fun m ->
        if !count < limit then diffs := m :: !diffs;
        incr count)
      fmt
  in
  let read_all v ino (a : Inode.t) =
    let rec go off acc =
      if off >= a.Inode.size then String.concat "" (List.rev acc)
      else
        let chunk =
          V.read v ino ~offset:off ~len:(min 65536 (a.Inode.size - off))
        in
        if chunk = "" then String.concat "" (List.rev acc)
        else go (off + String.length chunk) (chunk :: acc)
    in
    go 0 []
  in
  let rec walk path pi ni =
    let a = V.getattr pv pi and b = V.getattr nv ni in
    if a.Inode.kind <> b.Inode.kind then add "%s: kind differs" path
    else begin
      if a.Inode.size <> b.Inode.size then
        add "%s: size %d vs %d" path a.Inode.size b.Inode.size;
      if a.Inode.perms <> b.Inode.perms then add "%s: perms differ" path;
      if (a.Inode.uid, a.Inode.gid) <> (b.Inode.uid, b.Inode.gid) then
        add "%s: owner differs" path;
      if a.Inode.dos_flags <> b.Inode.dos_flags then
        add "%s: dos flags differ" path;
      let xa = List.sort compare (V.xattrs pv pi)
      and xb = List.sort compare (V.xattrs nv ni) in
      if xa <> xb then add "%s: xattrs differ" path;
      match a.Inode.kind with
      | Inode.Directory ->
        let da = List.sort compare (V.readdir pv pi)
        and db = List.sort compare (V.readdir nv ni) in
        let names l = List.map fst l in
        if names da <> names db then add "%s: entries differ" path
        else
          List.iter2
            (fun (nm, i1) (_, i2) ->
              walk (if path = "/" then "/" ^ nm else path ^ "/" ^ nm) i1 i2)
            da db
      | Inode.Regular | Inode.Symlink ->
        if
          a.Inode.size = b.Inode.size
          && read_all pv pi a <> read_all nv ni b
        then add "%s: contents differ" path
      | Inode.Free -> add "%s: free inode" path
    end
  in
  walk "/" (V.root_ino pv) (V.root_ino nv);
  (List.rev !diffs, !count)

let verify t ~name =
  let n = node t name in
  if name = t.root then Ok ()
  else begin
    let p = node t t.root in
    let pfs = fs_of p and nfs = fs_of n in
    let mine = checkpoints_on t nfs in
    let theirs = checkpoints_on t pfs in
    (* A replica not yet synced since the primary retired a checkpoint
       still holds it: older than all the primary holds, it is skipped. *)
    let retired_before =
      match theirs with (_, at) :: _ -> at | [] -> neg_infinity
    in
    let diffs = ref [] in
    List.iter
      (fun (snap, at) ->
        if at < retired_before then ()
        else if not (List.mem_assoc snap theirs) then
          diffs :=
            Printf.sprintf "%s: not held by primary %s" snap p.n_name
            :: !diffs
        else begin
          let pv = Fs.snapshot_view pfs snap
          and nv = Fs.snapshot_view nfs snap in
          let ds, total = view_diffs ~limit:50 pv nv in
          List.iter
            (fun d -> diffs := Printf.sprintf "%s: %s" snap d :: !diffs)
            ds;
          if total > List.length ds then
            diffs :=
              Printf.sprintf "%s: … %d more" snap (total - List.length ds)
              :: !diffs
        end)
      mine;
    if mine = [] && n.n_state <> Uninitialized then
      diffs := Printf.sprintf "%s holds no checkpoints" name :: !diffs;
    match List.rev !diffs with [] -> Ok () | ds -> Result.Error ds
  end

let status t =
  List.map
    (fun n ->
      {
        st_name = n.n_name;
        st_role = (if n.n_name = t.root then `Primary else `Replica);
        st_state = (if n.n_name = t.root then In_sync else n.n_state);
        st_last = n.n_last;
        st_lag_s = lag_s t ~name:n.n_name;
        st_upstream = Option.map (fun e -> e.e_up) (parent_edge t n.n_name);
      })
    t.nodes

(* ------------------------------------------------------------------ *)
(* Persistence: RPL1                                                   *)

let magic = "RPL1"
let version = 1

let state_tag = function
  | Uninitialized -> 0
  | Syncing -> 1
  | In_sync -> 2
  | Diverged -> 3
  | Resyncing -> 4

let state_of_tag = function
  | 0 -> Uninitialized
  | 1 -> Syncing
  | 2 -> In_sync
  | 3 -> Diverged
  | 4 -> Resyncing
  | n -> raise (Serde.Corrupt (Printf.sprintf "RPL1: bad state %d" n))

let save w t =
  Serde.write_fixed w magic;
  Serde.write_u8 w version;
  Serde.write_string w t.origin;
  Serde.write_string w t.root;
  Serde.write_int w t.seq;
  Serde.write_float w (Clock.now t.clock);
  Serde.write_list Serde.U32
    (fun w n ->
      Serde.write_string w n.n_name;
      Serde.write_u8 w (state_tag n.n_state);
      Serde.write_option Serde.write_string w n.n_last;
      Serde.write_option Serde.write_string w n.n_divergence;
      match n.n_backing with
      | Live _ -> Serde.write_u8 w 0
      | Owned o ->
        Serde.write_u8 w 1;
        (* a cached mount may hold dirty state; flush it first *)
        (match o.ofs with Some f -> Fs.cp f | None -> ());
        Persist.write w o.ovol)
    w t.nodes;
  Serde.write_list Serde.U32
    (fun w e ->
      Serde.write_string w e.e_up;
      Serde.write_string w e.e_down;
      Link.save w e.e_link;
      Serde.write_float w e.e_interval_s;
      Serde.write_float w e.e_next_due)
    w t.edges;
  let snaps =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.snap_times []
    |> List.sort compare
  in
  Serde.write_list Serde.U32
    (fun w (k, v) ->
      Serde.write_string w k;
      Serde.write_float w v)
    w snaps

let load r ~primary_fs =
  Serde.expect_magic r magic;
  let v = Serde.read_u8 r in
  if v <> version then
    raise (Serde.Corrupt (Printf.sprintf "RPL1: unknown version %d" v));
  let origin = Serde.read_string r in
  let root = Serde.read_string r in
  let seq = Serde.read_int r in
  let now = Serde.read_float r in
  let clock = Clock.create () in
  Clock.advance_to clock now;
  let nodes =
    Serde.read_list Serde.U32
      (fun r ->
        let n_name = Serde.read_string r in
        let n_state = state_of_tag (Serde.read_u8 r) in
        let n_last = Serde.read_option Serde.read_string r in
        let n_divergence = Serde.read_option Serde.read_string r in
        let n_backing =
          match Serde.read_u8 r with
          | 0 ->
            if n_name <> origin then
              raise (Serde.Corrupt "RPL1: live node is not the origin");
            Live { lfs = primary_fs }
          | 1 -> Owned { ovol = Persist.read r; ofs = None }
          | n ->
            raise (Serde.Corrupt (Printf.sprintf "RPL1: bad backing %d" n))
        in
        { n_name; n_state; n_last; n_divergence; n_backing })
      r
  in
  let edges =
    Serde.read_list Serde.U32
      (fun r ->
        let e_up = Serde.read_string r in
        let e_down = Serde.read_string r in
        let e_link = Link.load r in
        let e_interval_s = Serde.read_float r in
        if not (Float.is_finite e_interval_s && e_interval_s >= 0.0) then
          raise
            (Serde.Corrupt (Printf.sprintf "RPL1: bad interval %g for %s" e_interval_s e_down));
        let e_next_due = Serde.read_float r in
        { e_up; e_down; e_link; e_session = None; e_interval_s; e_next_due })
      r
  in
  let snap_times = Hashtbl.create 16 in
  List.iter
    (fun (k, v) -> Hashtbl.replace snap_times k v)
    (Serde.read_list Serde.U32
       (fun r ->
         let k = Serde.read_string r in
         (k, Serde.read_float r))
       r);
  { clock; origin; root; nodes; edges; snap_times; seq }

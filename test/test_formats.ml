(* Property tests for every on-media codec: dump headers, image records,
   fsinfo blocks, inodes, tar and cpio headers. Random values in, equal
   values out — and corrupted bytes never decode as valid. *)

module Spec = Repro_dump.Spec
module Format_img = Repro_image.Format
module Fsinfo = Repro_wafl.Fsinfo
module Inode = Repro_wafl.Inode
module Layout = Repro_wafl.Layout
module Serde = Repro_util.Serde

let gen_kind =
  QCheck2.Gen.oneofl [ Inode.Regular; Inode.Directory; Inode.Symlink ]

let gen_inode =
  QCheck2.Gen.(
    let* kind = gen_kind in
    let* nlink = int_range 1 100 in
    let* perms = int_bound 0o7777 in
    let* uid = int_bound 65535 in
    let* gid = int_bound 65535 in
    let* size = int_bound 10_000_000 in
    let* gen = int_bound 10000 in
    let* qtree = int_bound 100 in
    let* dos_flags = int_bound 0xff in
    let* direct0 = int_bound 1_000_000 in
    return
      {
        (Inode.make ~kind ~perms ~uid ~gid ~qtree ~now:1234.5 ()) with
        Inode.nlink;
        size;
        gen;
        dos_flags;
        direct =
          Array.init Layout.ndirect (fun i -> if i = 0 then direct0 else i * 7);
        single = 42;
        double = 43;
        xattr_vbn = 99;
      })

let inode_equal (a : Inode.t) (b : Inode.t) =
  a.Inode.kind = b.Inode.kind && a.Inode.nlink = b.Inode.nlink
  && a.Inode.perms = b.Inode.perms && a.Inode.uid = b.Inode.uid
  && a.Inode.gid = b.Inode.gid && a.Inode.size = b.Inode.size
  && a.Inode.gen = b.Inode.gen && a.Inode.qtree = b.Inode.qtree
  && a.Inode.dos_flags = b.Inode.dos_flags
  && a.Inode.direct = b.Inode.direct
  && a.Inode.single = b.Inode.single
  && a.Inode.double = b.Inode.double
  && Float.equal a.Inode.mtime b.Inode.mtime

let prop_inode_codec =
  QCheck2.Test.make ~name:"inode: 256-byte codec round-trips" gen_inode (fun i ->
      let b = Bytes.make Repro_wafl.Layout.inode_size 'x' in
      Inode.encode_into b ~pos:0 i;
      inode_equal i (Inode.decode (Bytes.to_string b) ~pos:0))

let gen_name = QCheck2.Gen.(string_size ~gen:(char_range 'a' 'z') (int_range 1 20))

let prop_dump_file_header =
  QCheck2.Test.make ~name:"dump: File header codec round-trips"
    QCheck2.Gen.(
      quad gen_inode (int_bound 100_000) (small_list (pair gen_name gen_name))
        (string_size (int_bound 500)))
    (fun (inode, ino, xattrs, prefix) ->
      let xattrs =
        (* respect header capacity *)
        let rec fit acc used = function
          | [] -> List.rev acc
          | (k, v) :: rest when used + String.length k + String.length v < 300 ->
            fit ((k, v) :: acc) (used + String.length k + String.length v) rest
          | _ :: rest -> fit acc used rest
        in
        fit [] 0 xattrs
      in
      let prefix =
        String.sub prefix 0
          (Stdlib.min (String.length prefix) (Spec.file_header_capacity ~xattrs))
      in
      let h =
        Spec.File
          {
            ino;
            inode;
            xattrs;
            nblocks = 77;
            present_prefix = prefix;
            present_total = String.length prefix;
          }
      in
      match Spec.decode (Spec.encode h) with
      | Some (Spec.File f) ->
        f.ino = ino && f.xattrs = xattrs
        && String.equal f.present_prefix prefix
        && f.nblocks = 77
        && f.inode.Inode.size = inode.Inode.size
        && f.inode.Inode.kind = inode.Inode.kind
      | _ -> false)

let prop_dump_header_corruption =
  QCheck2.Test.make ~name:"dump: corrupted headers never decode"
    QCheck2.Gen.(pair (int_bound 10_000) (int_bound 1023))
    (fun (ino, flip_at) ->
      let h = Spec.encode (Spec.Addr { ino; fragment = "some-fragment" }) in
      let b = Bytes.of_string h in
      Bytes.set b flip_at (Char.chr (Char.code (Bytes.get b flip_at) lxor 0x41));
      (* either unchanged (flip was a no-op, impossible with xor 0x41) or
         rejected *)
      Spec.decode (Bytes.to_string b) = None)

(* The record as [Format.write_extent] streams it, joined. *)
let extent_record ~vbn blocks =
  let b = Buffer.create 4096 in
  Format_img.write_extent (Buffer.add_string b) ~vbn blocks;
  Buffer.contents b

let input_of s =
  let pos = ref 0 in
  fun n ->
    let r = String.sub s !pos n in
    pos := !pos + n;
    r

(* The streamed record is byte for byte the one-string encoding it
   replaced (Oracle.Image_stream.encode_extent), and reads back as the
   same blocks, each one string. *)
let prop_image_extent =
  QCheck2.Test.make ~name:"image: extent record codec round-trips"
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_range 1 8))
    (fun (vbn, nblocks) ->
      let data = String.init (nblocks * 4096) (fun i -> Char.chr ((i + vbn) mod 256)) in
      let blocks = Array.init nblocks (fun i -> String.sub data (i * 4096) 4096) in
      let encoded = extent_record ~vbn blocks in
      String.equal encoded (Oracle.Image_stream.encode_extent ~vbn blocks)
      &&
      match Format_img.read_record ~after:(vbn - 1) (input_of encoded) with
      | Format_img.Extent { vbn = v; blocks = b } ->
        v = vbn && Array.for_all2 String.equal b blocks
      | Format_img.Trailer _ -> false)

let prop_image_extent_corruption =
  QCheck2.Test.make ~name:"image: corrupted extents rejected"
    QCheck2.Gen.(int_range 11 4000)
    (fun flip_at ->
      let encoded = extent_record ~vbn:7 [| String.make 4096 'x' |] in
      let b = Bytes.of_string encoded in
      let flip_at = flip_at mod Bytes.length b in
      if flip_at = 0 then true (* tag byte: framing error, different path *)
      else begin
        Bytes.set b flip_at (Char.chr (Char.code (Bytes.get b flip_at) lxor 0x81));
        match Format_img.read_record ~after:(-1) (input_of (Bytes.to_string b)) with
        | exception Serde.Corrupt _ -> true
        | Format_img.Extent _ | Format_img.Trailer _ -> false
      end)

(* An extent that does not start above the last vbn of the one before is
   damage: extents are written in ascending vbn order. *)
let prop_image_extent_order =
  QCheck2.Test.make ~name:"image: extents out of order refused"
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_bound 100))
    (fun (vbn, back) ->
      let encoded = extent_record ~vbn [| String.make 4096 'o' |] in
      let refused after =
        match Format_img.read_record ~after (input_of encoded) with
        | exception Serde.Corrupt _ -> true
        | _ -> false
      in
      refused (vbn + back) && not (refused (vbn - 1)))

let gen_snap_entry =
  QCheck2.Gen.(
    let* snap_id = int_range 1 1000 in
    let* plane = int_range 1 31 in
    let* snap_name = string_size ~gen:(char_range 'a' 'z') (int_range 1 20) in
    let* snap_root = gen_inode in
    return { Fsinfo.snap_id; plane; snap_name; created = 77.5; snap_root })

let prop_fsinfo_codec =
  QCheck2.Test.make ~name:"fsinfo: block codec round-trips"
    QCheck2.Gen.(
      triple gen_inode
        (list_size (int_bound 10) gen_snap_entry)
        (list_size (int_bound 5) (pair (int_range 1 100) (int_bound 1_000_000))))
    (fun (root, snaps, qtree_limits) ->
      let info =
        {
          Fsinfo.generation = 17;
          cp_time = 3.25;
          volume_blocks = 12345;
          max_inodes = 4096;
          next_snap_id = 1001;
          next_qtree = 55;
          qtree_limits;
          root;
          snaps;
        }
      in
      match Fsinfo.decode (Fsinfo.encode info) with
      | Some d ->
        d.Fsinfo.generation = 17
        && d.Fsinfo.volume_blocks = 12345
        && d.Fsinfo.qtree_limits = qtree_limits
        && List.length d.Fsinfo.snaps = List.length snaps
        && List.for_all2
             (fun (a : Fsinfo.snap_entry) (b : Fsinfo.snap_entry) ->
               a.Fsinfo.snap_id = b.Fsinfo.snap_id
               && a.Fsinfo.plane = b.Fsinfo.plane
               && String.equal a.Fsinfo.snap_name b.Fsinfo.snap_name)
             snaps d.Fsinfo.snaps
        && inode_equal root d.Fsinfo.root
      | None -> false)

let prop_fsinfo_corruption =
  QCheck2.Test.make ~name:"fsinfo: any byte flip rejected"
    QCheck2.Gen.(int_bound 4095)
    (fun flip_at ->
      let info =
        {
          Fsinfo.generation = 1;
          cp_time = 0.0;
          volume_blocks = 100;
          max_inodes = 64;
          next_snap_id = 1;
          next_qtree = 1;
          qtree_limits = [];
          root = Inode.free;
          snaps = [];
        }
      in
      let b = Bytes.of_string (Fsinfo.encode info) in
      Bytes.set b flip_at (Char.chr (Char.code (Bytes.get b flip_at) lxor 0x23));
      Fsinfo.decode (Bytes.to_string b) = None)

(* ------------------------------ totality ------------------------------ *)

(* Every persisted format writes its lists, options and floats through
   Serde's one vocabulary, so a decoder sizes nothing by a count it has
   not checked against the bytes left. These properties pin that down:
   round trips, every truncation a typed error, and allocation bounded
   by the input. *)

module Volume = Repro_block.Volume
module Persist = Repro_block.Persist
module Tape = Repro_tape.Tape
module Library = Repro_tape.Library
module Link = Repro_net.Link
module Fs = Repro_wafl.Fs
module Catalog = Repro_backup.Catalog
module Engine = Repro_backup.Engine
module Strategy = Repro_backup.Strategy
module Dumpdates = Repro_dump.Dumpdates
module Restore = Repro_dump.Restore
module Repl = Repro_repl.Repl
module Status = Repro_fleet.Fleet.Status
module Bitmap = Repro_util.Bitmap

(* Bytes [f] allocates. The minor heap is emptied first: a minor
   collection inside [f] can skew the counters by up to its size. *)
let allocated f =
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  let r = f () in
  (Gc.allocated_bytes () -. before, r)

let image write v =
  let w = Serde.writer () in
  write w v;
  Serde.contents w

let widths = [| (Serde.U8, 0xff); (Serde.U16, 0xffff); (Serde.U32, 0xffff_ffff) |]

let prop_serde_lists =
  QCheck2.Test.make ~count:200 ~name:"serde: lists round-trip, counts bounded"
    QCheck2.Gen.(
      triple (int_bound 2) (list_size (int_bound 300) (int_bound 255)) nat)
    (fun (wi, items, extra) ->
      let width, max_count = widths.(wi) in
      let items = List.filteri (fun i _ -> i < max_count - 1) items in
      let n = List.length items in
      let list_img = image (Serde.write_list width Serde.write_u8) items in
      let array_img =
        image (Serde.write_array width Serde.write_u8) (Array.of_list items)
      in
      let round_trips =
        Serde.read_list width Serde.read_u8 (Serde.reader list_img) = items
        && Serde.read_array width Serde.read_u8 (Serde.reader array_img)
           = Array.of_list items
        && String.equal list_img array_img
      in
      (* A count past the bytes left, up to the largest the width holds,
         is damage, refused before anything is allocated. *)
      let claimed =
        if extra mod 8 = 0 then max_count
        else n + 1 + (extra mod Int.min (max_count - n) (1 lsl 20))
      in
      let bad =
        let w = Serde.writer () in
        Serde.write_count width w claimed;
        List.iter (Serde.write_u8 w) items;
        Serde.contents w
      in
      let bound = Float.of_int ((64 * 1024) + (8 * String.length bad)) in
      let bounded read =
        let bytes, refused =
          allocated (fun () ->
              match read width Serde.read_u8 (Serde.reader bad) with
              | _ -> false
              | exception Serde.Corrupt _ -> true)
        in
        refused && bytes < bound
      in
      round_trips
      && bounded (fun w f r -> ignore (Serde.read_list w f r))
      && bounded (fun w f r -> ignore (Serde.read_array w f r)))

(* A format under test: generated values, their codec, and what equal
   means for them. Opaque values compare by their re-encoded image. *)
type row =
  | Row : {
      name : string;
      count : int;
      gen : 'a QCheck2.Gen.t;
      encode : 'a -> string;
      decode : string -> 'a;
      equal : 'a -> 'a -> bool;
    }
      -> row

let reencodes encode a b = String.equal (encode a) (encode b)

(* Every strict prefix must be refused with the typed error: each byte
   position below 64 KiB, 256 sampled ones above. *)
let truncations_refused decode img =
  let len = String.length img in
  let refused cut =
    match decode (String.sub img 0 cut) with
    | _ -> false
    | exception Serde.Corrupt _ -> true
  in
  if len < 64 * 1024 then List.for_all refused (List.init len Fun.id)
  else
    let rng = Random.State.make [| len |] in
    List.for_all refused (List.init 256 (fun _ -> Random.State.int rng len))

let prop_of_row (Row r) =
  QCheck2.Test.make ~count:r.count ~name:(r.name ^ ": round trip, truncations")
    r.gen (fun v ->
      let img = r.encode v in
      r.equal v (r.decode img) && truncations_refused r.decode img)

let gen_label = QCheck2.Gen.(string_size ~gen:(char_range 'a' 'z') (int_range 0 8))
let gen_date = QCheck2.Gen.(map (fun k -> Float.of_int k /. 8.0) (int_bound 1_000_000))

let mkfs blocks =
  Fs.mkfs (Volume.create ~label:"fmt" (Volume.small_geometry ~data_blocks:blocks))

(* A drive's worth of cartridge: records (fresh strings) and filemarks. *)
let gen_items =
  QCheck2.Gen.(
    list_size (int_bound 6)
      (option (map (fun n -> String.make n 'r') (int_range 1 300))))

let write_items drive items =
  List.iter
    (function
      | Some r -> Tape.write_record drive (r ^ "")
      | None -> Tape.write_filemark drive)
    items

let gen_media =
  QCheck2.Gen.map2
    (fun label items ->
      let drive = Tape.create ~label:"d" () in
      Tape.load drive (Tape.blank_media ~label);
      write_items drive items;
      Tape.unload drive)
    gen_label gen_items

(* A stacker with [slots] cartridges, the first ones written. *)
let gen_library =
  QCheck2.Gen.(
    map3
      (fun label slots cartridges ->
        let lib = Library.create ~slots ~label () in
        List.iteri
          (fun i items ->
            if i < slots && Library.load_next lib then
              write_items (Library.drive lib) items)
          cartridges;
        lib)
      (string_size ~gen:(char_range 'a' 'z') (int_range 1 6))
      (int_range 1 4)
      (list_size (int_bound 3) gen_items))

let gen_link_params =
  QCheck2.Gen.map3
    (fun bw lat retrans ->
      Link.params
        ~bandwidth_bytes_s:(Float.of_int (bw + 1) *. 1e5)
        ~latency_s:(Float.of_int lat /. 1000.0)
        ~max_retransmits:retrans ())
    (QCheck2.Gen.int_bound 1000) (QCheck2.Gen.int_bound 100) (QCheck2.Gen.int_bound 20)

let gen_entry =
  QCheck2.Gen.(
    let* strategy = oneofl [ Strategy.Logical; Strategy.Physical ] in
    let* label = gen_label in
    let* level = int_bound 9 in
    let* date = gen_date in
    let* bytes = int_bound 1_000_000_000 in
    let* drive = int_bound 7 in
    let* streams = list_size (int_bound 3) (int_bound 100) in
    let* part_drives = list_size (int_bound 3) (int_bound 7) in
    let* part_hosts = list_size (int_bound 3) gen_label in
    let* media = list_size (int_bound 3) gen_label in
    let* snapshot = gen_label in
    let* base_snapshot = gen_label in
    let+ degraded = int_bound 50 in
    {
      Catalog.id = 0;
      strategy;
      label;
      level;
      date;
      bytes;
      drive;
      stream = (match streams with s :: _ -> s | [] -> 0);
      streams;
      part_drives;
      part_hosts;
      media;
      snapshot;
      base_snapshot;
      degraded;
    })

let gen_checkpoint =
  QCheck2.Gen.(
    let* ck_strategy = oneofl [ Strategy.Logical; Strategy.Physical ] in
    let* ck_label = gen_label in
    let* ck_level = int_bound 9 in
    let* ck_date = gen_date in
    let* ck_drive = int_bound 7 in
    let* ck_drives = list_size (int_bound 3) (int_bound 7) in
    let* ck_parts = int_range 1 8 in
    let* ck_media = list_size (int_bound 3) gen_label in
    let+ ck_done =
      list_size (int_bound 3)
        (map3
           (fun part drive bytes ->
             { Catalog.part; stream = part + 1; drive; bytes; degraded = part mod 2 })
           (int_bound 8) (int_bound 7) (int_bound 1_000_000))
    in
    {
      Catalog.ck_strategy;
      ck_label;
      ck_level;
      ck_date;
      ck_subtree = "/" ^ ck_label;
      ck_drive;
      ck_drives;
      ck_parts;
      ck_snapshot = ck_label ^ ".s";
      ck_base_snapshot = "";
      ck_media;
      ck_done;
    })

let gen_catalog =
  QCheck2.Gen.map2
    (fun entries cks ->
      let c = Catalog.create () in
      List.iter (fun e -> ignore (Catalog.add c e)) entries;
      List.iter (Catalog.set_checkpoint c) cks;
      c)
    QCheck2.Gen.(list_size (int_bound 4) gen_entry)
    QCheck2.Gen.(list_size (int_bound 3) gen_checkpoint)

let gen_dumpdates =
  QCheck2.Gen.(
    map
      (fun items ->
        let dd = Dumpdates.create () in
        List.iter
          (fun (label, level, date) -> Dumpdates.record dd ~label ~level ~date)
          items;
        dd)
      (list_size (int_bound 6) (triple gen_label (int_bound 9) gen_date)))

let engine_fs = lazy (mkfs 1024)

let gen_engine =
  QCheck2.Gen.(
    map3
      (fun libs remote (cat, link_params) ->
        let eng = Engine.create ~fs:(Lazy.force engine_fs) ~libraries:libs () in
        (match remote with
        | [] -> ()
        | libraries ->
          ignore (Engine.attach_remote eng ~host:"vault" ~link_params ~libraries ()));
        List.iter
          (fun e -> ignore (Catalog.add (Engine.catalog eng) e))
          (Catalog.entries cat);
        List.iter (Catalog.set_checkpoint (Engine.catalog eng)) (Catalog.checkpoints cat);
        eng)
      (list_size (int_range 1 2) gen_library)
      (list_size (int_bound 1) gen_library)
      (pair gen_catalog gen_link_params))

let gen_volume =
  QCheck2.Gen.(
    map3
      (fun label blocks writes ->
        let vol = Volume.create ~label (Volume.small_geometry ~data_blocks:blocks) in
        List.iter
          (fun (vbn, c) ->
            Volume.write vol (vbn mod Volume.size_blocks vol) (String.make 4096 c))
          writes;
        vol)
      gen_label (int_range 16 256)
      (list_size (int_bound 3) (pair nat (char_range 'a' 'z'))))

let gen_status =
  QCheck2.Gen.(
    map2
      (fun digest completed -> { Status.st_digest = digest; st_completed = completed })
      (int_bound 0xffff_ffff)
      (list_size (int_bound 4)
         (let* c_volume = gen_label in
          let* c_tenant = gen_label in
          let* c_bytes = int_bound 1_000_000_000 in
          let* c_tape_crc = int_bound 0xffff_ffff in
          let* c_started = gen_date in
          let+ span = gen_date in
          {
            Status.c_volume;
            c_tenant;
            c_host = "vault0";
            c_bytes;
            c_tape_bytes = c_bytes + 1024;
            c_tape_crc;
            c_drive = "vault0.d0";
            c_started;
            c_finished = c_started +. span;
          })))

let gen_repl =
  QCheck2.Gen.(
    map2
      (fun replicas checkpoints ->
        let t = Repl.create ~primary:"A" (mkfs 64) in
        List.iteri
          (fun i interval ->
            Repl.add_replica t ~upstream:"A"
              ~name:(String.make 1 (Char.chr (66 + i)))
              ~interval_s:(Float.of_int interval) ())
          replicas;
        for _ = 1 to checkpoints do
          ignore (Repl.checkpoint t)
        done;
        t)
      (list_size (int_bound 2) (int_bound 100))
      (int_bound 2))

(* RSYM1 written from FORMATS.md §5, independently of [Restore]. The
   session keeps its directory table in a hash table, so two images of
   one session may list directories in different orders: [rsym1_canon]
   sorts them. *)
type rsym1 = {
  s_target : string;
  s_root : int;
  s_applied : int;
  s_dirs : (int * (string * int) list) list;
  s_usage : string option; (* the bitmap's image *)
}

let rsym1_encode s =
  let w = Serde.writer () in
  Serde.write_fixed w "RSYM1";
  Serde.write_string w s.s_target;
  Serde.write_u32 w s.s_root;
  Serde.write_u32 w s.s_applied;
  Serde.write_u32 w (List.length s.s_dirs);
  List.iter
    (fun (ino, entries) ->
      Serde.write_u32 w ino;
      Serde.write_u32 w (List.length entries);
      List.iter
        (fun (name, child) ->
          Serde.write_string w name;
          Serde.write_u32 w child)
        entries)
    s.s_dirs;
  (match s.s_usage with
  | None -> Serde.write_u8 w 0
  | Some bits ->
    Serde.write_u8 w 1;
    Serde.write_fixed w bits);
  Serde.contents w

let rsym1_canon img =
  let r = Serde.reader img in
  Serde.expect_magic r "RSYM1";
  let s_target = Serde.read_string r in
  let s_root = Serde.read_u32 r in
  let s_applied = Serde.read_u32 r in
  let n = Serde.read_u32 r in
  let rec dirs k acc =
    if k = 0 then acc
    else
      let ino = Serde.read_u32 r in
      let m = Serde.read_u32 r in
      let rec ents k acc =
        if k = 0 then List.rev acc
        else
          let name = Serde.read_string r in
          ents (k - 1) ((name, Serde.read_u32 r) :: acc)
      in
      dirs (k - 1) ((ino, ents m []) :: acc)
  in
  let s_dirs = List.sort compare (dirs n []) in
  let s_usage =
    if Serde.read_bool r then
      let bits = Serde.read_u32 r in
      Some (image Serde.write_u32 bits ^ Serde.read_fixed r ((bits + 7) / 8))
    else None
  in
  { s_target; s_root; s_applied; s_dirs; s_usage }

let gen_rsym1 =
  QCheck2.Gen.(
    let* s_target = map (fun l -> "/" ^ l) gen_label in
    let* s_root = oneof [ return 0xffff_ffff; int_bound 5000 ] in
    let* s_applied = int_bound 9 in
    let* dirs =
      list_size (int_bound 5)
        (pair (int_bound 5000)
           (list_size (int_bound 4) (pair gen_label (int_bound 5000))))
    in
    let+ usage = option (list_size (int_bound 8) (int_bound 199)) in
    let s_dirs = List.sort_uniq (fun (a, _) (b, _) -> compare a b) dirs in
    let s_usage =
      Option.map
        (fun set ->
          let b = Bitmap.create 200 in
          List.iter (Bitmap.set b) set;
          image Bitmap.write b)
        usage
    in
    { s_target; s_root; s_applied; s_dirs; s_usage })

let session_fs = lazy (mkfs 64)

let gen_xattrs =
  QCheck2.Gen.(
    list_size (int_bound 5)
      (pair gen_label (string_size ~gen:printable (int_bound 40))))

let gen_fsinfo =
  QCheck2.Gen.(
    map3
      (fun root snaps qtree_limits ->
        {
          Fsinfo.generation = 17;
          cp_time = 3.25;
          volume_blocks = 12345;
          max_inodes = 4096;
          next_snap_id = 1001;
          next_qtree = 55;
          qtree_limits;
          root;
          snaps;
        })
      gen_inode
      (list_size (int_bound 4) gen_snap_entry)
      (list_size (int_bound 5) (pair (int_range 1 100) (int_bound 1_000_000))))

let rows =
  let save f v = image f v in
  [
    Row
      {
        name = "RVOL1";
        count = 5;
        gen = gen_volume;
        encode = save Persist.write;
        decode = (fun s -> Persist.read (Serde.reader s));
        equal = reencodes (save Persist.write);
      };
    Row
      {
        name = "RENG4";
        count = 10;
        gen = gen_engine;
        encode = save Engine.save;
        decode = (fun s -> Engine.load (Serde.reader s) ~fs:(Lazy.force engine_fs));
        equal = reencodes (save Engine.save);
      };
    Row
      {
        name = "catalog v4";
        count = 30;
        gen = gen_catalog;
        encode = Catalog.encode;
        decode = (fun s -> Catalog.decode s);
        equal =
          (fun a b ->
            Catalog.entries a = Catalog.entries b
            && Catalog.checkpoints a = Catalog.checkpoints b
            && reencodes Catalog.encode a b);
      };
    Row
      {
        name = "dumpdates";
        count = 30;
        gen = gen_dumpdates;
        encode = Dumpdates.encode;
        decode = Dumpdates.decode;
        equal = reencodes Dumpdates.encode;
      };
    Row
      {
        name = "RLIB1";
        count = 20;
        gen = gen_library;
        encode = save Library.save;
        decode = (fun s -> Library.load (Serde.reader s));
        equal = reencodes (save Library.save);
      };
    Row
      {
        name = "RMED1";
        count = 30;
        gen = gen_media;
        encode = save Tape.write_media;
        decode = (fun s -> Tape.read_media (Serde.reader s));
        equal = reencodes (save Tape.write_media);
      };
    Row
      {
        name = "RLNK1";
        count = 30;
        gen =
          QCheck2.Gen.map2
            (fun label params -> Link.create ~params ~label ())
            gen_label gen_link_params;
        encode = save Link.save;
        decode = (fun s -> Link.load (Serde.reader s));
        equal =
          (fun a b ->
            String.equal (Link.label a) (Link.label b)
            && Link.params_of a = Link.params_of b);
      };
    Row
      {
        name = "RPL1";
        count = 5;
        gen = gen_repl;
        encode = save Repl.save;
        decode =
          (fun s -> Repl.load (Serde.reader s) ~primary_fs:(Lazy.force session_fs));
        equal = reencodes (save Repl.save);
      };
    Row
      {
        name = "FLT1";
        count = 30;
        gen = gen_status;
        encode = save Status.save;
        decode = (fun s -> Status.load (Serde.reader s));
        equal = ( = );
      };
    Row
      {
        name = "RSYM1";
        count = 30;
        gen = gen_rsym1;
        encode = rsym1_encode;
        decode =
          (fun s ->
            rsym1_canon
              (Restore.save_session
                 (Restore.load_session ~fs:(Lazy.force session_fs) s)));
        equal = ( = );
      };
    Row
      {
        name = "xattr block";
        count = 30;
        gen = gen_xattrs;
        encode = Fs.encode_xattrs;
        decode = Fs.decode_xattrs;
        equal = ( = );
      };
    (* Fsinfo is a fixed 4096-byte block: a short one is [None], which the
       row reports as the typed error. *)
    Row
      {
        name = "fsinfo";
        count = 10;
        gen = gen_fsinfo;
        encode = Fsinfo.encode;
        decode =
          (fun s ->
            match Fsinfo.decode s with
            | Some i -> i
            | None -> raise (Serde.Corrupt "fsinfo: None"));
        equal = reencodes Fsinfo.encode;
      };
  ]

(* Under `dune runtest` the cwd is the test directory; under `dune exec`
   from the repository root it is the root. *)
let read_fixture name =
  let dir = if Sys.file_exists "fixtures" then "fixtures" else "test/fixtures" in
  In_channel.with_open_bin (Filename.concat dir name) In_channel.input_all

(* A RENG3 engine blob written from FORMATS.md §5: two local stackers,
   catalog v3 (part drives and checkpoint pools, no part hosts). *)
let rlib1 ~label items =
  let w = Serde.writer () in
  Serde.write_fixed w "RLIB1";
  Serde.write_string w label;
  Serde.write_u64 w (Int64.bits_of_float 5.0);
  Serde.write_u64 w (Int64.bits_of_float 1.7);
  Serde.write_int w 35_000_000_000;
  Serde.write_u16 w 7 (* blanks *);
  Serde.write_u16 w 1 (* written cartridges *);
  Serde.write_fixed w "RMED1";
  Serde.write_string w (label ^ ".t00");
  Serde.write_u32 w (List.length items);
  Serde.write_int w (List.fold_left (fun a s -> a + String.length s) 0 items);
  List.iter
    (fun s ->
      if s = "" then Serde.write_u8 w 0
      else begin
        Serde.write_u8 w 1;
        Serde.write_string w s
      end)
    items;
  Serde.contents w

let catalog_v3 =
  let w = Serde.writer () in
  Serde.write_u32 w 2 (* next id *);
  Serde.write_u32 w 1;
  Serde.write_u32 w 1 (* id *);
  Serde.write_u8 w 0 (* logical *);
  Serde.write_string w "/data";
  Serde.write_u8 w 0;
  Serde.write_u64 w (Int64.bits_of_float 1000.5);
  Serde.write_int w 8192;
  Serde.write_u16 w 0 (* drive *);
  Serde.write_u16 w 2;
  Serde.write_u16 w 0;
  Serde.write_u16 w 0 (* streams *);
  Serde.write_u16 w 2;
  Serde.write_u16 w 0;
  Serde.write_u16 w 1 (* part drives *);
  Serde.write_u16 w 2;
  Serde.write_string w "L0.t00";
  Serde.write_string w "L1.t00" (* media *);
  Serde.write_string w "";
  Serde.write_string w "";
  Serde.write_u32 w 0 (* degraded *);
  Serde.write_u16 w 1 (* one checkpoint *);
  Serde.write_u8 w 1 (* physical *);
  Serde.write_string w "vol";
  Serde.write_u8 w 1;
  Serde.write_u64 w (Int64.bits_of_float 2000.0);
  Serde.write_string w "/";
  Serde.write_u16 w 1;
  Serde.write_u16 w 2;
  Serde.write_u16 w 1;
  Serde.write_u16 w 0 (* pool *);
  Serde.write_u16 w 2 (* parts *);
  Serde.write_string w "image.2";
  Serde.write_string w "image.1";
  Serde.write_u16 w 1;
  Serde.write_string w "L1.t00";
  Serde.write_u16 w 1 (* one finished part *);
  Serde.write_u16 w 0;
  Serde.write_u16 w 1;
  Serde.write_u16 w 1 (* its drive *);
  Serde.write_int w 4096;
  Serde.write_u32 w 0;
  Serde.contents w

let reng3 =
  let w = Serde.writer () in
  Serde.write_fixed w "RENG3";
  Serde.write_u16 w 2;
  Serde.write_fixed w (rlib1 ~label:"L0" [ "rec-a"; "" ]);
  Serde.write_fixed w (rlib1 ~label:"L1" [ "rec-b"; "rec-c"; "" ]);
  Serde.write_u32 w 1;
  Serde.write_u32 w 1 (* stream counters *);
  Serde.write_string w (Dumpdates.encode (Dumpdates.create ()));
  Serde.write_string w catalog_v3;
  Serde.write_u32 w 5 (* snapshot sequence *);
  Serde.contents w

let contains ~needle hay =
  let n = String.length needle in
  let rec go i =
    i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1))
  in
  go 0

let test_reng3_by_hand () =
  let eng = Engine.load (Serde.reader reng3) ~fs:(Lazy.force engine_fs) in
  Alcotest.(check int) "two drives" 2 (Engine.drive_count eng);
  Alcotest.(check (list string)) "no remote hosts" [] (Engine.hosts eng);
  Alcotest.(check string) "drive 1 is local" "" (Engine.drive_host eng 1);
  (match Catalog.entries (Engine.catalog eng) with
  | [ e ] ->
    Alcotest.(check (list int)) "part drives" [ 0; 1 ] e.Catalog.part_drives;
    Alcotest.(check (list string)) "part hosts default to local" [ ""; "" ]
      e.Catalog.part_hosts
  | _ -> Alcotest.fail "expected one entry");
  (match Catalog.checkpoints (Engine.catalog eng) with
  | [ ck ] ->
    Alcotest.(check (list int)) "pool" [ 1; 0 ] ck.Catalog.ck_drives;
    Alcotest.(check (list int))
      "finished part's drive" [ 1 ]
      (List.map (fun (d : Catalog.part_done) -> d.Catalog.drive) ck.Catalog.ck_done)
  | _ -> Alcotest.fail "expected one checkpoint");
  (* RENG4 carries the stackers through byte for byte *)
  let reng4 = image Engine.save eng in
  Alcotest.(check bool) "L0 kept" true
    (contains ~needle:(rlib1 ~label:"L0" [ "rec-a"; "" ]) reng4);
  Alcotest.(check bool) "L1 kept" true
    (contains ~needle:(rlib1 ~label:"L1" [ "rec-b"; "rec-c"; "" ]) reng4);
  let fixed =
    [
      ( "RENG3 by hand",
        reng3,
        fun s -> ignore (Engine.load (Serde.reader s) ~fs:(Lazy.force engine_fs)) );
      ( "catalog v2 fixture",
        read_fixture "catalog_reng2.bin",
        fun s -> ignore (Catalog.decode ~version:2 s) );
    ]
  in
  List.iter
    (fun (name, img, decode) ->
      decode img;
      Alcotest.(check bool) (name ^ ": every truncation refused") true
        (truncations_refused decode img))
    fixed

(* Images of 23 bytes that claim 2^24 items: before the checked count,
   each allocated 134 MB before failing. *)
let test_claimed_counts_refused () =
  let u32 n = image Serde.write_u32 n in
  let int n = image Serde.write_int n in
  let claim = 1 lsl 24 in
  let rmed1 = "RMED1" ^ u32 0 ^ u32 claim ^ int 0 ^ "\000\000" in
  let rsym1 = "RSYM1" ^ u32 0 ^ u32 0 ^ u32 0 ^ u32 claim ^ "\000\000" in
  List.iter
    (fun (name, img, decode) ->
      Alcotest.(check int) (name ^ " is 23 bytes") 23 (String.length img);
      let bytes, refused =
        allocated (fun () ->
            match decode img with _ -> false | exception Serde.Corrupt _ -> true)
      in
      Alcotest.(check bool) (name ^ " refused") true refused;
      if bytes >= 1e6 then Alcotest.failf "%s allocated %.0f bytes" name bytes)
    [
      ("RMED1", rmed1, fun s -> ignore (Tape.read_media (Serde.reader s)));
      ( "RSYM1",
        rsym1,
        fun s -> ignore (Restore.load_session ~fs:(Lazy.force session_fs) s) );
    ]

(* Decoded values a constructor would refuse are damage too: each image
   below is well formed byte for byte, but names a block outside its
   volume, a geometry Volume.geometry refuses, or a disk or drive rate no
   device can have. Each must be [Serde.Corrupt], never
   [Invalid_argument] or a silent load. *)
let rvol1 ?(groups = 1) ?(disks = 3) ?(blocks = 10) ?(seek = 8.0) ?(rate = 10.0)
    ?(vbns = [ 5 ]) () =
  let w = Serde.writer () in
  Serde.write_fixed w "RVOL1";
  Serde.write_string w "v";
  Serde.write_u16 w groups;
  Serde.write_u16 w disks;
  Serde.write_u32 w blocks;
  Serde.write_float w seek;
  Serde.write_float w rate;
  Serde.write_list Serde.U32
    (fun w vbn ->
      Serde.write_u32 w vbn;
      Serde.write_fixed w (String.make Repro_block.Block.size 'x'))
    w vbns;
  Serde.contents w

let rlib1_drive ?(rate = 5.0) ?(compression = 1.7) ?(capacity = 1_000_000) () =
  let w = Serde.writer () in
  Serde.write_fixed w "RLIB1";
  Serde.write_string w "L";
  Serde.write_float w rate;
  Serde.write_float w compression;
  Serde.write_int w capacity;
  Serde.write_u16 w 8;
  Serde.write_u16 w 0;
  Serde.contents w

let test_values_refused () =
  let read_vol s = ignore (Persist.read (Serde.reader s)) in
  let read_lib s = ignore (Library.load (Serde.reader s)) in
  read_vol (rvol1 ());
  read_vol (rvol1 ~vbns:[ 0; 5; 19 ] ());
  read_lib (rlib1_drive ());
  (* A geometry field with a flipped high bit is refused before the
     volume is allocated; one just inside the bound loads. *)
  List.iter
    (fun (name, img) ->
      let bytes, refused =
        allocated (fun () ->
            match read_vol img with () -> false | exception Serde.Corrupt _ -> true)
      in
      if not refused then Alcotest.failf "%s: loaded" name;
      if bytes >= 1e6 then Alcotest.failf "%s allocated %.0f bytes" name bytes)
    [
      ("RVOL1 blocks per disk 2^31 + 10", rvol1 ~blocks:((1 lsl 31) + 10) ());
      ("RVOL1 blocks per disk 2^22 + 10", rvol1 ~blocks:((1 lsl 22) + 10) ());
      ("RVOL1 groups 2^15 + 1", rvol1 ~groups:((1 lsl 15) + 1) ~blocks:1000 ());
      ("RVOL1 disks 2^15 + 3", rvol1 ~disks:((1 lsl 15) + 3) ~blocks:1000 ());
      ( "RVOL1 one block past the bound",
        rvol1 ~groups:2 ~disks:4 ~blocks:((Persist.max_volume_blocks / 8) + 1) () );
    ];
  read_vol (rvol1 ~groups:2 ~disks:4 ~blocks:(Persist.max_volume_blocks / 8) ());
  List.iter
    (fun (name, decode, img) ->
      match decode img with
      | () -> Alcotest.failf "%s: loaded" name
      | exception Serde.Corrupt _ -> ()
      | exception e -> Alcotest.failf "%s: %s" name (Printexc.to_string e))
    [
      ("RVOL1 vbn 0x7ffffff0", read_vol, rvol1 ~vbns:[ 0x7ffffff0 ] ());
      ("RVOL1 vbn one past the end", read_vol, rvol1 ~vbns:[ 20 ] ());
      ("RVOL1 descending vbns", read_vol, rvol1 ~vbns:[ 6; 5 ] ());
      ("RVOL1 a vbn twice", read_vol, rvol1 ~vbns:[ 5; 5 ] ());
      ("RVOL1 two disks per group", read_vol, rvol1 ~disks:2 ());
      ("RVOL1 no groups", read_vol, rvol1 ~groups:0 ());
      ("RVOL1 no blocks per disk", read_vol, rvol1 ~blocks:0 ());
      ("RVOL1 NaN seek", read_vol, rvol1 ~seek:Float.nan ());
      ("RVOL1 negative seek", read_vol, rvol1 ~seek:(-1.0) ());
      ("RVOL1 infinite rate", read_vol, rvol1 ~rate:Float.infinity ());
      ("RVOL1 zero rate", read_vol, rvol1 ~rate:0.0 ());
      ("RLIB1 rate -5.0", read_lib, rlib1_drive ~rate:(-5.0) ());
      ("RLIB1 NaN rate", read_lib, rlib1_drive ~rate:Float.nan ());
      ("RLIB1 infinite compression", read_lib, rlib1_drive ~compression:Float.infinity ());
      ("RLIB1 zero capacity", read_lib, rlib1_drive ~capacity:0 ());
    ];
  Alcotest.check_raises "Tape.params refuses NaN" (Invalid_argument "Tape.params")
    (fun () -> ignore (Tape.params ~native_mb_s:Float.nan ()))

(* ------------------------- pipeline conservation ---------------------- *)

module Instrument = Repro_backup.Instrument
module Resource = Repro_sim.Resource

let prop_pipeline_conservation =
  QCheck2.Test.make ~name:"pipeline: work conserved, elapsed bounded"
    QCheck2.Gen.(
      list_size (int_range 1 4)
        (list_size (int_range 1 3) (list_size (int_range 1 3) (int_range 1 50))))
    (fun streams_spec ->
      (* three shared resources; each demand picks one by index *)
      let resources = Array.init 3 (fun i -> Resource.create (Printf.sprintf "r%d" i)) in
      let total_work = Array.make 3 0.0 in
      let streams =
        List.mapi
          (fun si stages ->
            {
              Instrument.stream_label = Printf.sprintf "s%d" si;
              stages =
                List.mapi
                  (fun gi demands ->
                    Instrument.stage
                      (Printf.sprintf "g%d" gi)
                      (List.mapi
                         (fun di w ->
                           let r = resources.((si + gi + di) mod 3) in
                           let work = Float.of_int w /. 10.0 in
                           total_work.((si + gi + di) mod 3) <-
                             total_work.((si + gi + di) mod 3) +. work;
                           Instrument.demand r work)
                         demands))
                  stages;
            })
          streams_spec
      in
      let report = Instrument.run streams in
      let eps = 1e-6 in
      (* every unit of demanded work was delivered: the per-stage busy
         seconds of each resource sum to its total demand *)
      let delivered name =
        List.fold_left
          (fun acc (s : Instrument.stage_summary) ->
            acc +. Option.value (List.assoc_opt name s.Instrument.busy) ~default:0.0)
          0.0 report.Instrument.stages
      in
      let conserved =
        Array.for_all2
          (fun r w -> Float.abs (delivered (Resource.name r) -. w) < eps +. (w *. 1e-9))
          resources total_work
      in
      (* elapsed can never beat the busiest resource, nor the longest
         single stream run serially *)
      let lower_bound =
        Array.fold_left Float.max 0.0 total_work
      in
      conserved && report.Instrument.elapsed +. eps >= lower_bound)

let qsuite name tests = (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let () =
  Alcotest.run "formats"
    [
      qsuite "codecs"
        [
          prop_inode_codec;
          prop_dump_file_header;
          prop_dump_header_corruption;
          prop_image_extent;
          prop_image_extent_corruption;
          prop_image_extent_order;
          prop_fsinfo_codec;
          prop_fsinfo_corruption;
        ];
      qsuite "pipeline" [ prop_pipeline_conservation ];
      ( "totality",
        List.map (QCheck_alcotest.to_alcotest ~long:false)
          (prop_serde_lists :: List.map prop_of_row rows)
        @ [
            Alcotest.test_case "RENG3 and v2 fixture" `Quick test_reng3_by_hand;
            Alcotest.test_case "claimed counts refused" `Quick
              test_claimed_counts_refused;
            Alcotest.test_case "refused values are Corrupt" `Quick
              test_values_refused;
          ] );
    ]

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

let prop_image_extent =
  QCheck2.Test.make ~name:"image: extent record codec round-trips"
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_range 1 8))
    (fun (vbn, nblocks) ->
      let data = String.init (nblocks * 4096) (fun i -> Char.chr ((i + vbn) mod 256)) in
      let blocks = Array.init nblocks (fun i -> String.sub data (i * 4096) 4096) in
      let encoded = Format_img.encode_extent ~vbn blocks in
      let pos = ref 0 in
      let input n =
        let s = String.sub encoded !pos n in
        pos := !pos + n;
        s
      in
      match Format_img.read_record input with
      | Format_img.Extent { vbn = v; data = d } -> v = vbn && String.equal d data
      | Format_img.Trailer _ -> false)

let prop_image_extent_corruption =
  QCheck2.Test.make ~name:"image: corrupted extents rejected"
    QCheck2.Gen.(int_range 11 4000)
    (fun flip_at ->
      let encoded = Format_img.encode_extent ~vbn:7 [| String.make 4096 'x' |] in
      let b = Bytes.of_string encoded in
      let flip_at = flip_at mod Bytes.length b in
      if flip_at = 0 then true (* tag byte: framing error, different path *)
      else begin
        Bytes.set b flip_at (Char.chr (Char.code (Bytes.get b flip_at) lxor 0x81));
        let s = Bytes.to_string b in
        let pos = ref 0 in
        let input n =
          let r = String.sub s !pos n in
          pos := !pos + n;
          r
        in
        match Format_img.read_record input with
        | exception Serde.Corrupt _ -> true
        | Format_img.Extent _ | Format_img.Trailer _ -> false
      end)

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
          prop_fsinfo_codec;
          prop_fsinfo_corruption;
        ];
      qsuite "pipeline" [ prop_pipeline_conservation ];
    ]

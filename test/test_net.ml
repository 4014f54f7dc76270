(* Tests for the network data plane: wire framing, the flow-controlled
   session transport (timing, loss recovery, determinism, failure
   surfaces), and the engine's remote tape servers — including the
   differential property that a backup shipped over a lossy link restores
   byte-identically to a local one, and partition-then-resume. *)

module Frame = Repro_net.Frame
module Link = Repro_net.Link
module Session = Repro_net.Session
module Mover = Repro_net.Mover
module Fault = Repro_fault.Fault
module Volume = Repro_block.Volume
module Library = Repro_tape.Library
module Fs = Repro_wafl.Fs
module Strategy = Repro_backup.Strategy
module Catalog = Repro_backup.Catalog
module Engine = Repro_backup.Engine
module Compare = Repro_workload.Compare
module Serde = Repro_util.Serde

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

(* ------------------------------- frame ------------------------------- *)

let test_frame_roundtrip =
  QCheck.Test.make ~count:100 ~name:"frame encode/decode roundtrip"
    QCheck.(pair small_nat (string_of_size Gen.(0 -- 2000)))
    (fun (seq, payload) ->
      let image = Frame.encode ~seq payload in
      let seq', off, len = Frame.decode image in
      seq' = seq && String.equal (String.sub image off len) payload)

let test_frame_corruption =
  QCheck.Test.make ~count:100 ~name:"frame corruption is detected"
    QCheck.(pair (string_of_size Gen.(1 -- 500)) small_nat)
    (fun (payload, flip) ->
      let image = Bytes.of_string (Frame.encode ~seq:7 payload) in
      let i = flip mod Bytes.length image in
      Bytes.set image i (Char.chr (Char.code (Bytes.get image i) lxor 0x5a));
      ignore payload;
      match Frame.decode (Bytes.to_string image) with
      | exception Serde.Corrupt _ -> true
      | _ ->
        (* every byte of the image is covered: magic check, CRC over
           seq+payload, or the length prefix failing the read *)
        false)

(* The one-copy encode must produce the same image — magic, seq, CRC
   over seq+payload, payload — as the writer-per-frame oracle
   (Oracle.Frame), for sequence numbers across the whole u32 range, and
   decode must accept the oracle's image and point its slice at the
   payload. *)
let test_frame_fast_equals_reference =
  QCheck.Test.make ~count:200 ~name:"frame fast path equals reference bytes"
    QCheck.(
      pair
        (oneof [ small_nat; map (fun n -> n land 0xffffffff) int ])
        (string_of_size Gen.(0 -- 2000)))
    (fun (seq, payload) ->
      let reference = Oracle.Frame.encode_reference ~seq payload in
      let seq', off, len = Frame.decode reference in
      String.equal (Frame.encode ~seq payload) reference
      && seq' = seq
      && String.equal (String.sub reference off len) payload)

(* Decode is total: an image cut short anywhere (below the header, or
   inside the payload its length field announces), or one whose length
   field claims more than the image holds, is [Corrupt], never
   [Invalid_argument]. *)
let test_frame_decode_total =
  QCheck.Test.make ~count:200 ~name:"frame decode of short or inflated images is Corrupt"
    QCheck.(triple (string_of_size Gen.(0 -- 300)) small_nat (int_bound 0xffff))
    (fun (payload, cut, extra) ->
      let image = Frame.encode ~seq:3 payload in
      let short = String.sub image 0 (cut mod String.length image) in
      let inflated = Bytes.of_string image in
      Bytes.set_int32_le inflated 12
        (Int32.of_int (String.length payload + 1 + extra));
      let corrupt s =
        match Frame.decode s with
        | exception Serde.Corrupt _ -> true
        | _ -> false
      in
      corrupt short && corrupt (Bytes.to_string inflated))

let test_frame_sizes () =
  checks "magic" "RNF1" Frame.magic;
  checki "overhead" Frame.overhead (String.length (Frame.encode ~seq:0 ""));
  checki "payload adds through" (Frame.overhead + 5)
    (String.length (Frame.encode ~seq:0 "hello"))

(* ------------------------------ session ------------------------------ *)

let ship ?params ?(bytes = 1 lsl 20) () =
  let link = Link.create ?params ~label:"vault" () in
  let session = Session.connect ~host:"vault" link in
  let received = Buffer.create bytes in
  let stream =
    Session.open_stream session ~deliver:(Buffer.add_substring received)
  in
  let block = String.init 4096 (fun i -> Char.chr (i mod 251)) in
  let sent = Buffer.create bytes in
  let n = bytes / String.length block in
  for _ = 1 to n do
    Buffer.add_string sent block;
    Session.write stream block
  done;
  let x = Session.close_stream stream in
  (x, link, Buffer.contents sent, Buffer.contents received)

let test_session_delivers () =
  let x, _link, sent, received = ship () in
  checkb "payload intact" true (String.equal sent received);
  checki "bytes accounted" (String.length sent) x.Session.xf_bytes;
  checkb "pipelined in-flight" true (x.Session.xf_peak_in_flight > 65536);
  checki "no retransmits on a clean link" 0 x.Session.xf_retransmits

let test_session_goodput_matches_model () =
  (* bandwidth-bound and window-bound regimes both land within 5% of the
     closed-form model (the bench gates the same property) *)
  List.iter
    (fun params ->
      let x, link, _, _ = ship ~params ~bytes:(4 lsl 20) () in
      let model = Link.model_goodput (Link.params_of link) in
      let err = Float.abs (x.Session.xf_goodput_bytes_s -. model) /. model in
      checkb
        (Printf.sprintf "goodput %.0f within 5%% of model %.0f"
           x.Session.xf_goodput_bytes_s model)
        true (err < 0.05))
    [
      Link.params ~bandwidth_bytes_s:(8. *. 1048576.) ~latency_s:0.001 ();
      Link.params ~bandwidth_bytes_s:(128. *. 1048576.) ~latency_s:0.02
        ~window_bytes:(512 * 1024) ();
    ]

(* A link rate or latency that is not a finite number is refused with its
   typed error: an infinite latency once attached a server whose every
   transfer the model then timed as if the link were ordinary. *)
let test_link_params_reject_non_finite () =
  let same a b = Float.equal a b || (Float.is_nan a && Float.is_nan b) in
  List.iter
    (fun v ->
      let name = Printf.sprintf "%g" v in
      (match Link.params ~bandwidth_bytes_s:v () with
      | _ -> Alcotest.failf "bandwidth %s accepted" name
      | exception Link.Invalid (Link.Bad_bandwidth b) ->
        checkb ("bandwidth " ^ name ^ " is Bad_bandwidth") true (same b v)
      | exception Link.Invalid e ->
        Alcotest.failf "bandwidth %s: %s" name (Link.error_message e));
      match Link.params ~latency_s:v () with
      | _ -> Alcotest.failf "latency %s accepted" name
      | exception Link.Invalid (Link.Bad_latency l) ->
        checkb ("latency " ^ name ^ " is Bad_latency") true (same l v)
      | exception Link.Invalid e ->
        Alcotest.failf "latency %s: %s" name (Link.error_message e))
    [ Float.infinity; Float.neg_infinity; Float.nan ]

let test_session_loss_recovery_deterministic () =
  (* a seeded lossy plan: every frame still arrives exactly once and in
     order, and the same seed reproduces the same retransmit count *)
  let run () =
    let plane =
      Fault.plan ~seed:9
        [ Fault.Packet_loss { device = "vault"; losses = 50; prob = 0.2 } ]
    in
    Fault.with_armed plane (fun () ->
        let x, _, sent, received = ship ~bytes:(1 lsl 20) () in
        checkb "payload intact despite loss" true (String.equal sent received);
        x.Session.xf_retransmits)
  in
  let a = run () and b = run () in
  checkb "losses actually happened" true (a > 0);
  checki "seeded loss is deterministic" a b

let test_session_retransmit_exhaustion () =
  (* every frame lost: the retransmit budget runs out and the stream
     fails as Transient (the engine's retry layer absorbs that) *)
  let plane =
    Fault.plan
      [ Fault.Packet_loss { device = "vault"; losses = max_int; prob = 1.0 } ]
  in
  Fault.with_armed plane (fun () ->
      match ship ~bytes:65536 () with
      | exception Fault.Transient _ -> ()
      | _ -> Alcotest.fail "expected Transient after retransmit exhaustion")

let test_session_partition () =
  let plane =
    Fault.plan [ Fault.Link_partition { device = "vault"; after_frames = 6 } ]
  in
  Fault.with_armed plane (fun () ->
      match ship ~bytes:(1 lsl 20) () with
      | exception Fault.Partitioned _ ->
        checkb "link reads partitioned" true
          (Fault.partitioned plane ~device:"vault")
      | _ -> Alcotest.fail "expected Partitioned")

(* ------------------------------ engine ------------------------------- *)

(* The engine fixture comes from the shared differential harness, with
   this suite's heavier workload. *)
let make_engine ?(seed = 1) ?blocks () =
  let eng, fs, _libs =
    Differential.make_engine ?blocks ~bytes:700_000 ~seed ()
  in
  (eng, fs)

let attach ?link_params eng =
  Engine.attach_remote eng ~host:"vault" ?link_params
    ~libraries:
      [
        Library.create ~slots:16 ~label:"vault.stacker0" ();
        Library.create ~slots:16 ~label:"vault.stacker1" ();
      ]
    ()

let test_attach_remote_accounting () =
  let eng, _fs = make_engine () in
  let ids = attach eng in
  Alcotest.(check (list int)) "new indices" [ 1; 2 ] ids;
  checki "drive count" 3 (Engine.drive_count eng);
  checks "host of a remote drive" "vault" (Engine.drive_host eng 1);
  checks "host of the local drive" "" (Engine.drive_host eng 0);
  Alcotest.(check (list string)) "hosts" [ "vault" ] (Engine.hosts eng);
  Alcotest.(check (list int))
    "remote_drives" [ 1; 2 ]
    (Engine.remote_drives eng ~host:"vault");
  checkb "link exists" true (Engine.link_to eng ~host:"vault" <> None);
  (* a second attachment reuses the link but must not re-configure it *)
  try
    ignore (attach ~link_params:Link.default_params eng);
    Alcotest.fail "re-configuring an existing link accepted"
  with Engine.Attach_invalid (Engine.Link_configured "vault") -> ()

(* The differential property: a backup shipped to a remote tape server
   over a lossy (but not partitioned) link restores a tree byte-identical
   to the same backup on a local stacker — for either strategy, across
   seeds. Transient loss is fully absorbed by retransmission below the
   engine's sight. *)
let remote_equals_local strategy seed =
  let restored eng ~remote =
    let drives = if remote then Engine.remote_drives eng ~host:"vault" else [ 0 ] in
    let label =
      match strategy with Strategy.Logical -> "/data" | Strategy.Physical -> "vol"
    in
    let job =
      match strategy with
      | Strategy.Logical ->
        Engine.Job.make ~strategy ~subtree:"/data" ~parts:2 ~drives ()
      | Strategy.Physical -> Engine.Job.make ~strategy ~label ~parts:2 ~drives ()
    in
    let entry = Engine.backup_job eng job in
    checkb "parts on the expected side" true
      (List.for_all
         (fun h -> String.equal h (if remote then "vault" else ""))
         entry.Catalog.part_hosts);
    match strategy with
    | Strategy.Logical ->
      let dvol = Volume.create ~label:"dst" (Volume.small_geometry ~data_blocks:16384) in
      let dfs = Fs.mkfs dvol in
      ignore (Engine.restore_logical eng ~label ~fs:dfs ~target:"/restored" ());
      (dfs, "/restored")
    | Strategy.Physical ->
      let nvol = Volume.create ~label:"new" (Volume.small_geometry ~data_blocks:16384) in
      ignore (Engine.restore_physical eng ~label ~volume:nvol ());
      (Fs.mount nvol, "/data")
  in
  let eng_l, fs_l = make_engine ~seed () in
  let local_fs, local_root = restored eng_l ~remote:false in
  let eng_r, _fs_r = make_engine ~seed () in
  ignore (attach eng_r);
  let plane =
    Fault.plan ~seed
      [ Fault.Packet_loss { device = "vault"; losses = 200; prob = 0.05 } ]
  in
  let remote_fs, remote_root =
    Fault.with_armed plane (fun () -> restored eng_r ~remote:true)
  in
  (match Compare.trees ~src:(fs_l, "/data") ~dst:(local_fs, local_root) () with
  | Ok () -> ()
  | Error d -> Alcotest.failf "local restore diverged: %s" (String.concat ";" d));
  match Compare.trees ~src:(local_fs, local_root) ~dst:(remote_fs, remote_root) () with
  | Ok () -> true
  | Error d ->
    Alcotest.failf "remote restore differs from local: %s" (String.concat ";" d)

let test_remote_differential_logical =
  QCheck.Test.make ~count:4 ~name:"remote==local over lossy link (logical)"
    QCheck.(int_range 1 1000)
    (remote_equals_local Strategy.Logical)

let test_remote_differential_physical =
  QCheck.Test.make ~count:4 ~name:"remote==local over lossy link (physical)"
    QCheck.(int_range 1 1000)
    (remote_equals_local Strategy.Physical)

(* Hard partition mid-dump: the in-flight remote part dies with the
   link, already-completed parts stay checkpointed, and after healing
   the link [~resume:true] re-ships only the unfinished parts. *)
let test_partition_then_resume () =
  let eng, fs = make_engine () in
  let remote = attach eng in
  let drives = 0 :: remote in
  let plane =
    Fault.plan [ Fault.Link_partition { device = "vault"; after_frames = 40 } ]
  in
  Fault.with_armed plane (fun () ->
      (match
         Engine.backup_job eng
           (Engine.Job.make ~strategy:Strategy.Logical ~subtree:"/data" ~parts:6
              ~drives ())
       with
      | _ -> Alcotest.fail "expected the partition to kill the job"
      | exception Fault.Partitioned _ -> ());
      let ck =
        match Catalog.checkpoints (Engine.catalog eng) with
        | [ ck ] -> ck
        | _ -> Alcotest.fail "expected exactly one checkpoint"
      in
      let done_before = List.length ck.Catalog.ck_done in
      checkb "some parts survived on other drives" true (done_before >= 1);
      checkb "not all parts finished" true (done_before < 6);
      Fault.revive plane ~device:"vault";
      checkb "link healed" true (not (Fault.partitioned plane ~device:"vault"));
      let entry =
        Engine.backup_job eng
          (Engine.Job.make ~strategy:Strategy.Logical ~subtree:"/data"
             ~resume:true ())
      in
      checki "all parts in the final entry" 6 (List.length entry.Catalog.streams);
      (* a full restore proves the re-shipped parts really landed *)
      let dvol = Volume.create ~label:"dst" (Volume.small_geometry ~data_blocks:16384) in
      let dfs = Fs.mkfs dvol in
      ignore (Engine.restore_logical eng ~label:"/data" ~fs:dfs ~target:"/restored" ());
      match Compare.trees ~src:(fs, "/data") ~dst:(dfs, "/restored") () with
      | Ok () -> ()
      | Error d -> Alcotest.failf "mismatch after resume: %s" (String.concat ";" d))

(* RENG4 persistence: links and remote attachments survive save/load,
   and the reloaded engine still restores from the remote cartridges. *)
let test_reng4_roundtrip () =
  let eng, fs = make_engine () in
  let remote = attach eng in
  ignore
    (Engine.backup_job eng
       (Engine.Job.make ~strategy:Strategy.Logical ~subtree:"/data" ~parts:2
          ~drives:remote ()));
  let w = Serde.writer () in
  Engine.save w eng;
  let eng2 = Engine.load (Serde.reader (Serde.contents w)) ~fs in
  checki "drive count back" (Engine.drive_count eng) (Engine.drive_count eng2);
  Alcotest.(check (list string)) "hosts back" [ "vault" ] (Engine.hosts eng2);
  Alcotest.(check (list int))
    "remote drives back" remote
    (Engine.remote_drives eng2 ~host:"vault");
  (match Engine.link_to eng2 ~host:"vault" with
  | None -> Alcotest.fail "link lost"
  | Some l ->
    checkb "link params back" true (Link.params_of l = Link.default_params));
  let dvol = Volume.create ~label:"dst" (Volume.small_geometry ~data_blocks:16384) in
  let dfs = Fs.mkfs dvol in
  ignore (Engine.restore_logical eng2 ~label:"/data" ~fs:dfs ~target:"/restored" ());
  match Compare.trees ~src:(fs, "/data") ~dst:(dfs, "/restored") () with
  | Ok () -> ()
  | Error d -> Alcotest.failf "mismatch after reload: %s" (String.concat ";" d)

(* ------------------------------- mover ------------------------------- *)

type item = Record of string | Mark

(* Any sequence of records (empty ones, ones larger than the link MTU)
   and filemarks, and the cuts that slice its wire. *)
let wire_case =
  let mtu = Link.default_params.Link.mtu_bytes in
  let open QCheck2.Gen in
  let record =
    frequency
      [
        (1, return "");
        (4, string_size (int_range 1 300));
        ( 1,
          map2
            (fun n k -> String.init n (fun i -> Char.chr ((i * k) land 0xff)))
            (int_range (mtu + 1) ((2 * mtu) + 100))
            (int_range 1 255) );
      ]
  in
  let item = frequency [ (5, map (fun r -> Record r) record); (1, return Mark) ] in
  (* Small cuts land inside the 4-byte headers; empty ones too. *)
  let cut =
    frequency
      [ (1, int_range 0 8); (2, int_range 9 5000); (1, int_range 5001 100_000) ]
  in
  pair (list_size (int_range 0 30) item) (list_size (int_range 0 40) cut)

let show_wire_case (items, cuts) =
  let show = function
    | Record r -> Printf.sprintf "record(%d)" (String.length r)
    | Mark -> "mark"
  in
  Printf.sprintf "[%s] cut at [%s]"
    (String.concat "; " (List.map show items))
    (String.concat "; " (List.map string_of_int cuts))

let wire_of items =
  String.concat ""
    (List.map
       (function
         | Record r -> Mover.record_header (String.length r) ^ r
         | Mark -> Mover.mark)
       items)

(* Hand [feed] the wire as slices at the cuts, in order; whatever they
   leave arrives as one last slice. *)
let feed_cuts feed wire cuts =
  let rec go pos = function
    | _ when pos >= String.length wire -> ()
    | c :: rest ->
      let n = min c (String.length wire - pos) in
      feed wire pos n;
      go (pos + n) rest
    | [] -> feed wire pos (String.length wire - pos)
  in
  go 0 cuts

let reassemble_into got =
  Mover.reassembler
    ~on_record:(fun r -> got := Record r :: !got)
    ~on_mark:(fun () -> got := Mark :: !got)

(* The record-over-session wire: the items, framed and then cut at
   arbitrary chunk boundaries, reassemble to the same sequence. *)
let test_mover_reassembly =
  QCheck2.Test.make ~count:200 ~name:"mover wire reassembles under any chunking"
    ~print:show_wire_case wire_case (fun (items, cuts) ->
      let got = ref [] in
      feed_cuts (reassemble_into got) (wire_of items) cuts;
      List.rev !got = items)

(* The slice reassembler reports the same items, in the same order, as
   the concatenating one it replaced (Oracle.Mover), however the wire is
   cut — the oracle fed copies, the library slices of one string. *)
let test_mover_equals_oracle =
  QCheck2.Test.make ~count:200 ~name:"mover reassembler equals concat oracle"
    ~print:show_wire_case wire_case (fun (items, cuts) ->
      let wire = wire_of items in
      let got = ref [] and want = ref [] in
      feed_cuts (reassemble_into got) wire cuts;
      let oracle =
        Oracle.Mover.reassembler
          ~on_record:(fun r -> want := Record r :: !want)
          ~on_mark:(fun () -> want := Mark :: !want)
      in
      feed_cuts (fun s pos n -> oracle (String.sub s pos n)) wire cuts;
      !got = !want)

(* An untrusted length field buys no memory: a header claiming nearly
   4 GiB followed by 100 kB of body allocates in proportion to the 100 kB,
   and the record (and anything after it) is never reported — which is
   what makes [Mover.remote_source] fail a shipment that ends
   mid-record. *)
let test_mover_inflated_length () =
  let got = ref [] in
  let feed = reassemble_into got in
  let chunk = String.make 1000 'x' in
  (* Empty the minor heap first: a minor collection inside the window
     can skew Gc.allocated_bytes by up to the heap's size. *)
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  feed (Mover.record_header 0xFFFF_FFFE) 0 4;
  for _ = 1 to 100 do
    feed chunk 0 (String.length chunk)
  done;
  feed Mover.mark 0 4;
  let allocated = Gc.allocated_bytes () -. before in
  checkb
    (Printf.sprintf "allocated %.0f bytes for 100 kB received" allocated)
    true
    (allocated < 1_000_000.0);
  checki "nothing reported" 0 (List.length !got)

let q = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "net"
    [
      ( "frame",
        [
          q test_frame_roundtrip;
          q test_frame_corruption;
          q test_frame_fast_equals_reference;
          q test_frame_decode_total;
          Alcotest.test_case "sizes" `Quick test_frame_sizes;
        ] );
      ( "mover",
        [
          q test_mover_reassembly;
          q test_mover_equals_oracle;
          Alcotest.test_case "inflated length allocates by bytes received"
            `Quick test_mover_inflated_length;
        ] );
      ( "session",
        [
          Alcotest.test_case "delivers in order" `Quick test_session_delivers;
          Alcotest.test_case "goodput matches model" `Quick
            test_session_goodput_matches_model;
          Alcotest.test_case "non-finite link params rejected" `Quick
            test_link_params_reject_non_finite;
          Alcotest.test_case "seeded loss recovery is deterministic" `Quick
            test_session_loss_recovery_deterministic;
          Alcotest.test_case "retransmit exhaustion is Transient" `Quick
            test_session_retransmit_exhaustion;
          Alcotest.test_case "partition raises Partitioned" `Quick
            test_session_partition;
        ] );
      ( "engine",
        [
          Alcotest.test_case "attach_remote accounting" `Quick
            test_attach_remote_accounting;
          q test_remote_differential_logical;
          q test_remote_differential_physical;
          Alcotest.test_case "partition then resume" `Quick
            test_partition_then_resume;
          Alcotest.test_case "RENG4 save/load with remote drives" `Quick
            test_reng4_roundtrip;
        ] );
    ]

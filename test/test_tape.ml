(* Tests for the tape substrate: drive semantics, stacker, buffered stream
   I/O, spanning, stream indexing, and corruption injection. *)

module Tape = Repro_tape.Tape
module Library = Repro_tape.Library
module Tapeio = Repro_tape.Tapeio

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

let drive ?params () = Tape.create ?params ~label:"t0" ()

let test_write_read_records () =
  let t = drive () in
  Tape.load t (Tape.blank_media ~label:"m0");
  Tape.write_record t "one";
  Tape.write_record t "two";
  Tape.write_filemark t;
  Tape.write_record t "three";
  Tape.rewind t;
  (match Tape.read_record t with
  | Tape.Record s -> checks "r1" "one" s
  | _ -> Alcotest.fail "expected record");
  (match Tape.read_record t with
  | Tape.Record s -> checks "r2" "two" s
  | _ -> Alcotest.fail "expected record");
  checkb "filemark" true (Tape.read_record t = Tape.Filemark);
  (match Tape.read_record t with
  | Tape.Record s -> checks "r3" "three" s
  | _ -> Alcotest.fail "expected record");
  checkb "end" true (Tape.read_record t = Tape.End_of_data)

let test_write_truncates_tail () =
  let t = drive () in
  Tape.load t (Tape.blank_media ~label:"m0");
  Tape.write_record t "aaa";
  Tape.write_record t "bbb";
  Tape.rewind t;
  ignore (Tape.read_record t);
  Tape.write_record t "CCC";
  (* overwrote 'bbb'; tail gone *)
  Tape.rewind t;
  ignore (Tape.read_record t);
  (match Tape.read_record t with
  | Tape.Record s -> checks "overwritten" "CCC" s
  | _ -> Alcotest.fail "expected record");
  checkb "tail truncated" true (Tape.read_record t = Tape.End_of_data)

let test_no_media () =
  let t = drive () in
  try
    Tape.write_record t "x";
    Alcotest.fail "no media should raise"
  with Tape.No_media -> ()

let test_capacity_and_compression () =
  let p = Tape.params ~native_mb_s:5.0 ~compression:2.0 ~capacity_bytes:1000 () in
  let t = drive ~params:p () in
  Tape.load t (Tape.blank_media ~label:"m0");
  (* 2:1 compression: 1500 payload bytes fit in 750 on media *)
  Tape.write_record t (String.make 1500 'x');
  checkb "fits compressed" true (Tape.media_bytes (Option.get (Tape.loaded t)) <= 1000);
  (* but another 600 (300 compressed) pushes past capacity *)
  try
    Tape.write_record t (String.make 600 'y');
    Alcotest.fail "expected End_of_tape"
  with Tape.End_of_tape -> ()

let test_streaming_time () =
  let p = Tape.params ~native_mb_s:5.0 ~compression:1.0 ~capacity_bytes:max_int () in
  let t = drive ~params:p () in
  Tape.load t (Tape.blank_media ~label:"m0");
  Tape.write_record t (String.make 5_000_000 'x');
  Alcotest.(check (float 0.01)) "1 second at 5MB/s" 1.0 (Tape.busy_seconds t)

let test_skip_filemarks () =
  let t = drive () in
  Tape.load t (Tape.blank_media ~label:"m0");
  Tape.write_record t "s0";
  Tape.write_filemark t;
  Tape.write_record t "s1";
  Tape.write_filemark t;
  Tape.write_record t "s2";
  Tape.rewind t;
  Tape.skip_filemarks t 2;
  match Tape.read_record t with
  | Tape.Record s -> checks "third stream" "s2" s
  | _ -> Alcotest.fail "expected record"

let test_library_media_change () =
  let lib = Library.create ~slots:3 ~label:"L" () in
  checkb "first load" true (Library.load_next lib);
  Tape.write_record (Library.drive lib) "on tape 0";
  checkb "second load" true (Library.load_next lib);
  Tape.write_record (Library.drive lib) "on tape 1";
  checki "two used" 2 (List.length (Library.used_media lib));
  Library.rewind_to_start lib;
  (match Tape.read_record (Library.drive lib) with
  | Tape.Record s -> checks "back on tape 0" "on tape 0" s
  | _ -> Alcotest.fail "expected record");
  checkb "advance" true (Library.advance_for_read lib);
  (match Tape.read_record (Library.drive lib) with
  | Tape.Record s -> checks "tape 1" "on tape 1" s
  | _ -> Alcotest.fail "expected record");
  checkb "no more" false (Library.advance_for_read lib);
  checkb "robot time accounted" true (Library.change_time_total lib > 0.0)

let test_library_exhaustion () =
  let lib = Library.create ~slots:1 ~label:"L" () in
  checkb "one" true (Library.load_next lib);
  checkb "empty" false (Library.load_next lib)

let test_tapeio_roundtrip () =
  let lib = Library.create ~slots:4 ~label:"L" () in
  let sink = Tapeio.sink ~record_bytes:1024 lib in
  let payload = String.init 10_000 (fun i -> Char.chr (i mod 251)) in
  Tapeio.output sink payload;
  Tapeio.close_sink sink;
  checki "bytes counted" 10_000 (Tapeio.sink_bytes_written sink);
  let src = Tapeio.source lib in
  checks "exact bytes back" payload (Tapeio.input src 10_000);
  try
    ignore (Tapeio.input src 1);
    Alcotest.fail "expected End_of_file at filemark"
  with End_of_file -> ()

let test_tapeio_spans_cartridges () =
  let p = Tape.params ~compression:1.0 ~capacity_bytes:4096 () in
  let lib = Library.create ~params:p ~slots:8 ~label:"L" () in
  let sink = Tapeio.sink ~record_bytes:1000 lib in
  let payload = String.init 20_000 (fun i -> Char.chr (i mod 13 + 65)) in
  Tapeio.output sink payload;
  Tapeio.close_sink sink;
  checkb "several cartridges" true (List.length (Library.used_media lib) >= 4);
  let src = Tapeio.source lib in
  checks "spanned read" payload (Tapeio.input src 20_000)

let test_tapeio_multiple_streams () =
  let lib = Library.create ~slots:4 ~label:"L" () in
  List.iteri
    (fun i s ->
      ignore i;
      let sink = Tapeio.sink lib in
      Tapeio.output sink s;
      Tapeio.close_sink sink)
    [ "stream zero"; "stream one"; "stream two" ];
  let read i n = Tapeio.input (Tapeio.source ~skip_streams:i lib) n in
  checks "s0" "stream zero" (read 0 11);
  checks "s2" "stream two" (read 2 10);
  checks "s1" "stream one" (read 1 10)

let test_corrupt_record () =
  let t = drive () in
  let m = Tape.blank_media ~label:"m0" in
  Tape.load t m;
  Tape.write_record t "pristine-data";
  Tape.corrupt_record m ~index:0;
  Tape.rewind t;
  match Tape.read_record t with
  | Tape.Record s -> checkb "damaged" true (not (String.equal s "pristine-data"))
  | _ -> Alcotest.fail "expected record"

let prop_tapeio_roundtrip =
  QCheck2.Test.make ~name:"tapeio: arbitrary chunk sequences round-trip"
    QCheck2.Gen.(list_size (int_range 1 20) (string_size (int_bound 5000)))
    (fun chunks ->
      let lib = Library.create ~slots:16 ~label:"L" () in
      let sink = Tapeio.sink ~record_bytes:777 lib in
      List.iter (Tapeio.output sink) chunks;
      Tapeio.close_sink sink;
      let whole = String.concat "" chunks in
      let src = Tapeio.source lib in
      String.equal whole (Tapeio.input_all src))

(* End to end through a real stacker: the records on tape are exactly
   the pieces the Buffer chunker oracle cuts from the same writes. *)
let prop_tapeio_records_match_chunker =
  QCheck2.Test.make ~name:"tapeio: records = Buffer chunker oracle"
    QCheck2.Gen.(list_size (int_range 1 20) (string_size (int_bound 2000)))
    (fun chunks ->
      let lib = Library.create ~slots:16 ~label:"L" () in
      let sink = Tapeio.sink ~record_bytes:777 lib in
      List.iter (Tapeio.output sink) chunks;
      Tapeio.close_sink sink;
      let want = ref [] in
      let o =
        Oracle.Chunker.create ~piece:777 ~emit:(fun p -> want := p :: !want)
      in
      List.iter
        (fun c ->
          Oracle.Chunker.add o c;
          Oracle.Chunker.flush_chunks o ~all:false)
        chunks;
      Oracle.Chunker.flush_chunks o ~all:true;
      let next = Tapeio.records lib in
      let rec drain acc = match next () with Some r -> drain (r :: acc) | None -> acc in
      drain [] = !want)

(* A tape's contents as the test builds them: records and filemarks. *)
type item = Record of string | Mark

let items_gen =
  QCheck2.Gen.(
    list_size (int_range 0 12)
      (frequency
         [ (4, map (fun r -> Record r) (string_size (int_bound 300))); (1, return Mark) ]))

let show_items items =
  String.concat "; "
    (List.map
       (function Record r -> Printf.sprintf "record(%d)" (String.length r) | Mark -> "mark")
       items)

let write_items t items =
  List.iter
    (function Record r -> Tape.write_record t r | Mark -> Tape.write_filemark t)
    items

let read_all t =
  Tape.rewind t;
  let rec go acc =
    match Tape.read_record t with
    | Tape.Record r -> go (Record r :: acc)
    | Tape.Filemark -> go (Mark :: acc)
    | Tape.End_of_data -> List.rev acc
  in
  go []

let flipped r =
  let b = Bytes.of_string r in
  let flip off =
    if off < Bytes.length b then
      Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0xff))
  in
  flip (Bytes.length b / 2);
  flip (Bytes.length b - 1);
  flip 0;
  Bytes.to_string b

(* Records are immutable: corrupting one replaces it on the media, so the
   string a reader got before is unchanged, and a read afterwards sees
   exactly the flipped bytes in that record and no other change. *)
let prop_corrupt_keeps_earlier_reads =
  QCheck2.Test.make ~name:"corrupt_record: earlier reads unchanged"
    ~print:(fun (items, k) -> Printf.sprintf "[%s] corrupt %d" (show_items items) k)
    QCheck2.Gen.(pair items_gen (int_bound 20))
    (fun (items, k) ->
      let items = Record "seed-record" :: items in
      (* [corrupt_record] counts every record, empty ones included, and
         refuses an empty one: pick the k-th non-empty record. *)
      let record_indices =
        List.filter_map Fun.id
          (List.mapi (fun i r -> if r = "" then None else Some i)
             (List.filter_map (function Record r -> Some r | Mark -> None) items))
      in
      let index = List.nth record_indices (k mod List.length record_indices) in
      let t = drive () in
      let m = Tape.blank_media ~label:"m0" in
      Tape.load t m;
      write_items t items;
      let before = read_all t in
      let copies =
        List.map (function Record r -> Record (String.init (String.length r) (String.get r)) | Mark -> Mark) before
      in
      Tape.corrupt_record m ~index;
      let after = read_all t in
      let expected =
        let i = ref (-1) in
        List.map
          (function
            | Record r ->
              incr i;
              if !i = index then Record (flipped r) else Record r
            | Mark -> Mark)
          items
      in
      before = copies && before = items && after = expected)

(* RMED1 bytes did not move when records became strings: [write_media]
   equals the u32-length-then-bytes encoding of the byte-buffer records
   (Oracle.Media), and [read_media] reads it back to the same records. *)
let prop_media_bytes_unchanged =
  QCheck2.Test.make ~name:"write_media = byte-record encoding"
    ~print:show_items items_gen
    (fun items ->
      let t = drive () in
      let m = Tape.blank_media ~label:"m0" in
      Tape.load t m;
      write_items t items;
      let w = Repro_util.Serde.writer () in
      Tape.write_media w m;
      let got = Repro_util.Serde.contents w in
      let w = Repro_util.Serde.writer () in
      Oracle.Media.write_reference w ~label:"m0" ~stored_bytes:(Tape.media_bytes m)
        (List.map
           (function Record r -> Oracle.Media.Rec (Bytes.of_string r) | Mark -> Oracle.Media.Mark)
           items);
      let t' = drive () in
      Tape.load t' (Tape.read_media (Repro_util.Serde.reader got));
      String.equal got (Repro_util.Serde.contents w) && read_all t' = items)

(* [Tapeio.input] returns exactly the stream's next bytes whatever the
   request sizes: inside one record, a whole record, across records, or
   empty. *)
let prop_tapeio_input_any_sizes =
  QCheck2.Test.make ~name:"tapeio: input of any sizes = stream bytes"
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 10) (string_size (int_bound 2000)))
        (list_size (int_range 1 40) (frequency [ (1, return 0); (1, return 777); (4, int_bound 1600) ])))
    (fun (chunks, sizes) ->
      let lib = Library.create ~slots:16 ~label:"L" () in
      let sink = Tapeio.sink ~record_bytes:777 lib in
      List.iter (Tapeio.output sink) chunks;
      Tapeio.close_sink sink;
      let whole = String.concat "" chunks in
      let src = Tapeio.source lib in
      let rec go pos = function
        | [] -> String.equal (Tapeio.input_all src) (String.sub whole pos (String.length whole - pos))
        | n :: rest ->
          if pos + n > String.length whole then
            (match Tapeio.input src n with exception End_of_file -> true | _ -> false)
          else String.equal (Tapeio.input src n) (String.sub whole pos n) && go (pos + n) rest
      in
      go 0 sizes)

let () =
  Alcotest.run "tape"
    [
      ( "drive",
        [
          Alcotest.test_case "records and filemarks" `Quick test_write_read_records;
          Alcotest.test_case "mid-tape write truncates" `Quick test_write_truncates_tail;
          Alcotest.test_case "no media" `Quick test_no_media;
          Alcotest.test_case "capacity and compression" `Quick
            test_capacity_and_compression;
          Alcotest.test_case "streaming rate" `Quick test_streaming_time;
          Alcotest.test_case "skip filemarks" `Quick test_skip_filemarks;
          Alcotest.test_case "corruption injection" `Quick test_corrupt_record;
          QCheck_alcotest.to_alcotest ~long:false prop_corrupt_keeps_earlier_reads;
          QCheck_alcotest.to_alcotest ~long:false prop_media_bytes_unchanged;
        ] );
      ( "library",
        [
          Alcotest.test_case "media changes" `Quick test_library_media_change;
          Alcotest.test_case "magazine exhaustion" `Quick test_library_exhaustion;
        ] );
      ( "tapeio",
        [
          Alcotest.test_case "round trip" `Quick test_tapeio_roundtrip;
          Alcotest.test_case "spans cartridges" `Quick test_tapeio_spans_cartridges;
          Alcotest.test_case "stream indexing" `Quick test_tapeio_multiple_streams;
          QCheck_alcotest.to_alcotest ~long:false prop_tapeio_roundtrip;
          QCheck_alcotest.to_alcotest ~long:false prop_tapeio_records_match_chunker;
          QCheck_alcotest.to_alcotest ~long:false prop_tapeio_input_any_sizes;
        ] );
    ]

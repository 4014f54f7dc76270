(* Logical dump/restore tests: full and incremental round trips, selective
   (stupidity) recovery, filters, corruption resilience, cross-"platform"
   restore via the canonical format. *)

module Volume = Repro_block.Volume
module Library = Repro_tape.Library
module Tape = Repro_tape.Tape
module Tapeio = Repro_tape.Tapeio
module Fs = Repro_wafl.Fs
module Inode = Repro_wafl.Inode
module Dump = Repro_dump.Dump
module Restore = Repro_dump.Restore
module Dumpdates = Repro_dump.Dumpdates
module Filter = Repro_dump.Filter
module Generator = Repro_workload.Generator
module Compare = Repro_workload.Compare

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

let make_fs ?(blocks = 24576) label =
  let vol = Volume.create ~label (Volume.small_geometry ~data_blocks:blocks) in
  (Fs.mkfs vol, vol)

let tape_lib label = Library.create ~slots:8 ~label ()

let dump_to ?level ?dumpdates ?exclude fs lib ~subtree ~label =
  let view = Fs.active_view fs in
  Dump.run ?level ?dumpdates ?exclude ~view ~subtree ~label ~date:(Fs.now fs)
    ~sink:(Tapeio.sink lib) ()

let restore_from session lib = Restore.apply session (Tapeio.source lib)

let assert_equal_trees ?check_times src dst =
  match Compare.trees ?check_times ~src ~dst () with
  | Ok () -> ()
  | Error diffs -> Alcotest.failf "trees differ: %s" (String.concat "; " diffs)

let populated ?(bytes = 2_000_000) ?(seed = 1) label =
  let fs, vol = make_fs label in
  let profile = { Generator.default with seed } in
  let stats = Generator.populate ~profile ~fs ~root:"/data" ~total_bytes:bytes () in
  (fs, vol, stats)

let test_full_roundtrip () =
  let fs, _, stats = populated "src" in
  checkb "generated some files" true (stats.Generator.files > 20);
  let lib = tape_lib "t0" in
  let result = dump_to fs lib ~subtree:"/data" ~label:"data" in
  checkb "dumped files" true (result.Dump.files_dumped >= stats.Generator.files);
  let rfs, _ = make_fs "dst" in
  let session = Restore.session ~fs:rfs ~target:"/restored" () in
  let r = restore_from session lib in
  checki "no corruption" 0 r.Restore.corrupt_headers_skipped;
  assert_equal_trees ~check_times:true (fs, "/data") (rfs, "/restored")

let test_dump_preserves_multiprotocol_attrs () =
  let fs, _ = make_fs "src" in
  ignore (Fs.mkdir fs "/data" ~perms:0o750);
  ignore (Fs.create fs "/data/report.doc" ~perms:0o640);
  Fs.write fs "/data/report.doc" ~offset:0 "quarterly numbers";
  Fs.set_xattr fs "/data/report.doc" ~name:"dos.name" ~value:"REPORT~1.DOC";
  Fs.set_xattr fs "/data/report.doc" ~name:"nt.acl" ~value:"D:(A;;FA;;;BA)";
  Fs.set_dos_flags fs "/data/report.doc" ~flags:0x22;
  let lib = tape_lib "t0" in
  ignore (dump_to fs lib ~subtree:"/data" ~label:"data");
  let rfs, _ = make_fs "dst" in
  let session = Restore.session ~fs:rfs ~target:"/r" () in
  ignore (restore_from session lib);
  checks "dos name" "REPORT~1.DOC"
    (Option.get (Fs.get_xattr rfs "/r/report.doc" ~name:"dos.name"));
  checks "acl" "D:(A;;FA;;;BA)"
    (Option.get (Fs.get_xattr rfs "/r/report.doc" ~name:"nt.acl"));
  checki "dos flags" 0x22 (Fs.getattr rfs "/r/report.doc").Inode.dos_flags;
  checki "perms" 0o640 (Fs.getattr rfs "/r/report.doc").Inode.perms

let test_sparse_file_roundtrip () =
  let fs, _ = make_fs "src" in
  ignore (Fs.mkdir fs "/data" ~perms:0o755);
  ignore (Fs.create fs "/data/sparse" ~perms:0o644);
  Fs.write fs "/data/sparse" ~offset:0 "head";
  Fs.write fs "/data/sparse" ~offset:(100 * 4096) "middle";
  Fs.write fs "/data/sparse" ~offset:(1200 * 4096) "tail";
  let lib = tape_lib "t0" in
  ignore (dump_to fs lib ~subtree:"/data" ~label:"data");
  let rfs, _ = make_fs "dst" in
  let session = Restore.session ~fs:rfs ~target:"/r" () in
  ignore (restore_from session lib);
  checks "head" "head" (Fs.read rfs "/r/sparse" ~offset:0 ~len:4);
  checks "middle" "middle" (Fs.read rfs "/r/sparse" ~offset:(100 * 4096) ~len:6);
  checks "tail" "tail" (Fs.read rfs "/r/sparse" ~offset:(1200 * 4096) ~len:4);
  checks "hole stays zero" (String.make 8 '\000')
    (Fs.read rfs "/r/sparse" ~offset:(50 * 4096) ~len:8);
  (* the dump must not have materialized the holes on tape *)
  let attr = Fs.getattr rfs "/r/sparse" in
  checki "size" ((1200 * 4096) + 4) attr.Inode.size

let test_incremental_roundtrip () =
  let fs, _, _ = populated ~bytes:800_000 "src" in
  let dd = Dumpdates.create () in
  let lib0 = tape_lib "t0" in
  ignore (dump_to ~level:0 ~dumpdates:dd fs lib0 ~subtree:"/data" ~label:"data");
  (* Mutate: new file, changed file, deleted file, renamed file. *)
  let files = Generator.file_paths fs "/data" in
  let f1 = List.nth files 0 and f2 = List.nth files 1 and f3 = List.nth files 2 in
  ignore (Fs.create fs "/data/new-file.txt" ~perms:0o644);
  Fs.write fs "/data/new-file.txt" ~offset:0 "brand new";
  Fs.write fs f1 ~offset:0 "CHANGED CONTENT";
  Fs.unlink fs f2;
  Fs.rename fs f3 (Filename.dirname f3 ^ "/renamed-away.dat");
  ignore (Fs.mkdir fs "/data/newdir" ~perms:0o700);
  ignore (Fs.create fs "/data/newdir/inside" ~perms:0o644);
  Fs.write fs "/data/newdir/inside" ~offset:0 "inner";
  let lib1 = tape_lib "t1" in
  ignore (dump_to ~level:1 ~dumpdates:dd fs lib1 ~subtree:"/data" ~label:"data");
  (* Restore the chain. *)
  let rfs, _ = make_fs "dst" in
  let session = Restore.session ~fs:rfs ~target:"/r" () in
  ignore (restore_from session lib0);
  let r1 = restore_from session lib1 in
  checkb "some deletions applied" true (r1.Restore.files_deleted >= 1);
  assert_equal_trees (fs, "/data") (rfs, "/r")

let test_incremental_chain_three_levels () =
  let fs, _, _ = populated ~bytes:400_000 "src" in
  let dd = Dumpdates.create () in
  let libs = Array.init 3 (fun i -> tape_lib (Printf.sprintf "t%d" i)) in
  ignore (dump_to ~level:0 ~dumpdates:dd fs libs.(0) ~subtree:"/data" ~label:"data");
  ignore (Fs.create fs "/data/level1.txt" ~perms:0o644);
  Fs.write fs "/data/level1.txt" ~offset:0 "one";
  ignore (dump_to ~level:1 ~dumpdates:dd fs libs.(1) ~subtree:"/data" ~label:"data");
  ignore (Fs.create fs "/data/level2.txt" ~perms:0o644);
  Fs.write fs "/data/level2.txt" ~offset:0 "two";
  Fs.unlink fs "/data/level1.txt";
  ignore (dump_to ~level:2 ~dumpdates:dd fs libs.(2) ~subtree:"/data" ~label:"data");
  let rfs, _ = make_fs "dst" in
  let session = Restore.session ~fs:rfs ~target:"/r" () in
  Array.iter (fun lib -> ignore (restore_from session lib)) libs;
  assert_equal_trees (fs, "/data") (rfs, "/r")

let test_incremental_only_dumps_changes () =
  let fs, _, stats = populated ~bytes:1_500_000 "src" in
  let dd = Dumpdates.create () in
  let lib0 = tape_lib "t0" in
  let r0 = dump_to ~level:0 ~dumpdates:dd fs lib0 ~subtree:"/data" ~label:"data" in
  ignore (Fs.create fs "/data/one-new-file.txt" ~perms:0o644);
  Fs.write fs "/data/one-new-file.txt" ~offset:0 "tiny";
  let lib1 = tape_lib "t1" in
  let r1 = dump_to ~level:1 ~dumpdates:dd fs lib1 ~subtree:"/data" ~label:"data" in
  checkb "incremental much smaller" true
    (r1.Dump.bytes_written * 10 < r0.Dump.bytes_written);
  checki "one file" 1 r1.Dump.files_dumped;
  ignore stats

let test_selective_restore () =
  let fs, _, _ = populated ~bytes:600_000 "src" in
  ignore (Fs.mkdir fs "/data/precious" ~perms:0o755);
  ignore (Fs.create fs "/data/precious/gem.txt" ~perms:0o600);
  Fs.write fs "/data/precious/gem.txt" ~offset:0 "the one file that matters";
  let lib = tape_lib "t0" in
  ignore (dump_to fs lib ~subtree:"/data" ~label:"data");
  (* user deletes their file; restore only it, not the whole volume *)
  Fs.unlink fs "/data/precious/gem.txt";
  let session = Restore.session ~fs ~target:"/data" () in
  let r =
    Restore.apply ~select:[ "precious/gem.txt" ] session (Tapeio.source lib)
  in
  checki "exactly one file" 1 r.Restore.files_restored;
  checks "content back" "the one file that matters"
    (Fs.read fs "/data/precious/gem.txt" ~offset:0 ~len:100)

let test_selective_restore_subtree () =
  let fs, _, _ = populated ~bytes:600_000 "src" in
  ignore (Fs.mkdir fs "/data/dir-a" ~perms:0o755);
  ignore (Fs.create fs "/data/dir-a/one" ~perms:0o644);
  Fs.write fs "/data/dir-a/one" ~offset:0 "1";
  ignore (Fs.create fs "/data/dir-a/two" ~perms:0o644);
  Fs.write fs "/data/dir-a/two" ~offset:0 "2";
  let lib = tape_lib "t0" in
  ignore (dump_to fs lib ~subtree:"/data" ~label:"data");
  let rfs, _ = make_fs "dst" in
  let session = Restore.session ~fs:rfs ~target:"/r" () in
  let r = Restore.apply ~select:[ "dir-a" ] session (Tapeio.source lib) in
  checki "two files" 2 r.Restore.files_restored;
  checks "one" "1" (Fs.read rfs "/r/dir-a/one" ~offset:0 ~len:1);
  checkb "nothing else restored" true (Fs.lookup rfs "/r/f000000.dat" = None)

let test_table_of_contents () =
  let fs, _ = make_fs "src" in
  ignore (Fs.mkdir fs "/data" ~perms:0o755);
  ignore (Fs.mkdir fs "/data/sub" ~perms:0o755);
  ignore (Fs.create fs "/data/sub/x.txt" ~perms:0o644);
  Fs.write fs "/data/sub/x.txt" ~offset:0 "x";
  let lib = tape_lib "t0" in
  ignore (dump_to fs lib ~subtree:"/data" ~label:"data");
  let toc = Restore.table_of_contents (Tapeio.source lib) in
  let paths = List.map (fun e -> e.Restore.rel_path) toc in
  checkb "has sub" true (List.mem "sub" paths);
  checkb "has sub/x.txt" true (List.mem "sub/x.txt" paths)

let test_exclusion_filters () =
  let fs, _ = make_fs "src" in
  ignore (Fs.mkdir fs "/data" ~perms:0o755);
  ignore (Fs.create fs "/data/keep.txt" ~perms:0o644);
  Fs.write fs "/data/keep.txt" ~offset:0 "keep";
  ignore (Fs.create fs "/data/skip.o" ~perms:0o644);
  Fs.write fs "/data/skip.o" ~offset:0 "object file";
  ignore (Fs.mkdir fs "/data/tmp" ~perms:0o755);
  ignore (Fs.create fs "/data/tmp/scratch" ~perms:0o644);
  Fs.write fs "/data/tmp/scratch" ~offset:0 "scratch";
  let lib = tape_lib "t0" in
  let exclude = Filter.compile [ "*.o"; "tmp/**" ] in
  ignore (dump_to ~exclude fs lib ~subtree:"/data" ~label:"data");
  let rfs, _ = make_fs "dst" in
  let session = Restore.session ~fs:rfs ~target:"/r" () in
  ignore (restore_from session lib);
  checkb "kept" true (Fs.lookup rfs "/r/keep.txt" <> None);
  checkb "excluded .o" true (Fs.lookup rfs "/r/skip.o" = None);
  checkb "excluded tmp contents" true (Fs.lookup rfs "/r/tmp/scratch" = None)

let test_corruption_loses_only_one_file () =
  (* "Since each file is self-contained, a minor tape corruption will
     usually affect only that single file." *)
  let fs, _ = make_fs "src" in
  ignore (Fs.mkdir fs "/data" ~perms:0o755);
  for i = 0 to 9 do
    let p = Printf.sprintf "/data/file%d.dat" i in
    ignore (Fs.create fs p ~perms:0o644);
    Fs.write fs p ~offset:0 (String.make 60_000 (Char.chr (65 + i)))
  done;
  let lib = tape_lib "t0" in
  ignore (dump_to fs lib ~subtree:"/data" ~label:"data");
  (* Smash a record in the middle of the file section. *)
  let media = List.hd (Library.used_media lib) in
  let records = Tape.media_records media in
  Tape.corrupt_record media ~index:(records / 2);
  let rfs, _ = make_fs "dst" in
  let session = Restore.session ~fs:rfs ~target:"/r" () in
  let r = restore_from session lib in
  let restored = List.length (Generator.file_paths rfs "/r") in
  checkb "most files survive" true (restored >= 8);
  checkb "restore completed" true (r.Restore.files_restored >= 8);
  (* surviving files have intact content *)
  List.iter
    (fun p ->
      let base = Filename.basename p in
      let i = Char.code base.[4] - Char.code '0' in
      let expect = String.make 100 (Char.chr (65 + i)) in
      Alcotest.(check string) p expect (Fs.read rfs p ~offset:0 ~len:100))
    (Generator.file_paths rfs "/r")

let test_dump_spans_multiple_tapes () =
  let fs, _ = make_fs ~blocks:24576 "src" in
  ignore (Fs.mkdir fs "/data" ~perms:0o755);
  for i = 0 to 5 do
    let p = Printf.sprintf "/data/big%d" i in
    ignore (Fs.create fs p ~perms:0o644);
    Fs.write fs p ~offset:0 (String.init 3_000_000 (fun j -> Char.chr ((i + j) mod 251)))
  done;
  (* tiny cartridges force media changes *)
  let lib =
    Library.create
      ~params:(Tape.params ~capacity_bytes:2_000_000 ~compression:1.0 ())
      ~slots:16 ~label:"small" ()
  in
  let view = Fs.active_view fs in
  ignore
    (Dump.run ~view ~subtree:"/data" ~label:"data" ~date:(Fs.now fs)
       ~sink:(Tapeio.sink lib) ());
  checkb "used several cartridges" true (List.length (Library.used_media lib) >= 3);
  let rfs, _ = make_fs ~blocks:24576 "dst" in
  let session = Restore.session ~fs:rfs ~target:"/r" () in
  ignore (restore_from session lib);
  assert_equal_trees (fs, "/data") (rfs, "/r")

let test_empty_directory_roundtrip () =
  let fs, _ = make_fs "src" in
  ignore (Fs.mkdir fs "/data" ~perms:0o755);
  ignore (Fs.mkdir fs "/data/empty" ~perms:0o711);
  let lib = tape_lib "t0" in
  ignore (dump_to fs lib ~subtree:"/data" ~label:"data");
  let rfs, _ = make_fs "dst" in
  let session = Restore.session ~fs:rfs ~target:"/r" () in
  ignore (restore_from session lib);
  checkb "empty dir restored" true (Fs.lookup rfs "/r/empty" <> None);
  checki "perms kept" 0o711 (Fs.getattr rfs "/r/empty").Inode.perms

(* The paper's central consistency claim: dumping from a snapshot yields a
   self-consistent image of the moment the snapshot was taken, even while
   the live file system churns mid-dump. The observe hook interleaves
   mutations between dump phases. *)
let test_snapshot_consistency_under_churn () =
  let fs, _ = make_fs "src" in
  ignore (Fs.mkdir fs "/data" ~perms:0o755);
  for i = 0 to 19 do
    let p = Printf.sprintf "/data/f%02d" i in
    ignore (Fs.create fs p ~perms:0o644);
    Fs.write fs p ~offset:0 (Printf.sprintf "original %02d" i)
  done;
  Fs.snapshot_create fs "dump";
  let view = Fs.snapshot_view fs "dump" in
  let lib = tape_lib "t0" in
  let churn label =
    (* aggressive concurrent mutation between/inside dump phases *)
    ignore label;
    for i = 0 to 19 do
      let p = Printf.sprintf "/data/f%02d" i in
      if Fs.lookup fs p <> None then Fs.write fs p ~offset:0 "MUTATED!!!!"
    done;
    ignore (Fs.create fs (Printf.sprintf "/data/new-%s" label) ~perms:0o644);
    Fs.unlink fs "/data/f00";
    ignore (Fs.create fs "/data/f00" ~perms:0o644);
    Fs.write fs "/data/f00" ~offset:0 "REPLACED";
    Fs.cp fs
  in
  let observe label f =
    let tag = String.map (fun c -> if c = ' ' then '_' else c) label in
    churn ("pre-" ^ tag);
    f ();
    churn ("post-" ^ tag)
  in
  ignore
    (Dump.run ~observe ~view ~subtree:"/data" ~label:"data" ~date:(Fs.now fs)
       ~sink:(Tapeio.sink lib) ());
  let rfs, _ = make_fs "dst" in
  let session = Restore.session ~fs:rfs ~target:"/r" () in
  ignore (restore_from session lib);
  (* the restore shows the snapshot's world, untouched by the churn *)
  for i = 0 to 19 do
    checks
      (Printf.sprintf "f%02d frozen" i)
      (Printf.sprintf "original %02d" i)
      (Fs.read rfs (Printf.sprintf "/r/f%02d" i) ~offset:0 ~len:11)
  done;
  checkb "no churn artifacts" true (Fs.lookup rfs "/r/new-pre-mapping" = None)

let test_symlinks_roundtrip () =
  let fs, _ = make_fs "src" in
  ignore (Fs.mkdir fs "/data" ~perms:0o755);
  ignore (Fs.create fs "/data/real.txt" ~perms:0o644);
  Fs.write fs "/data/real.txt" ~offset:0 "pointed at";
  Fs.symlink fs ~target:"real.txt" "/data/alias";
  Fs.symlink fs ~target:"/somewhere/absolute" "/data/dangling";
  let lib = tape_lib "t0" in
  ignore (dump_to fs lib ~subtree:"/data" ~label:"data");
  let rfs, _ = make_fs "dst" in
  let session = Restore.session ~fs:rfs ~target:"/r" () in
  ignore (restore_from session lib);
  checks "relative target" "real.txt" (Fs.readlink rfs "/r/alias");
  checks "dangling target kept verbatim" "/somewhere/absolute"
    (Fs.readlink rfs "/r/dangling");
  assert_equal_trees (fs, "/data") (rfs, "/r");
  (* symlink replaced by file across an incremental *)
  let dd = Dumpdates.create () in
  let lib0 = tape_lib "t1" in
  ignore (dump_to ~level:0 ~dumpdates:dd fs lib0 ~subtree:"/data" ~label:"d2");
  Fs.unlink fs "/data/alias";
  ignore (Fs.create fs "/data/alias" ~perms:0o644);
  Fs.write fs "/data/alias" ~offset:0 "now a file";
  let lib1 = tape_lib "t2" in
  ignore (dump_to ~level:1 ~dumpdates:dd fs lib1 ~subtree:"/data" ~label:"d2");
  let rfs2, _ = make_fs "dst2" in
  let session2 = Restore.session ~fs:rfs2 ~target:"/r" () in
  ignore (restore_from session2 lib0);
  ignore (restore_from session2 lib1);
  assert_equal_trees (fs, "/data") (rfs2, "/r");
  checks "kind change applied" "now a file" (Fs.read rfs2 "/r/alias" ~offset:0 ~len:10)

let test_hardlinks_roundtrip () =
  (* the dump format is inode-based precisely so multiply-linked files are
     stored once and restored as links, not copies *)
  let fs, _ = make_fs "src" in
  ignore (Fs.mkdir fs "/data" ~perms:0o755);
  ignore (Fs.mkdir fs "/data/d1" ~perms:0o755);
  ignore (Fs.mkdir fs "/data/d2" ~perms:0o755);
  ignore (Fs.create fs "/data/d1/file" ~perms:0o644);
  Fs.write fs "/data/d1/file" ~offset:0 (String.make 50_000 'L');
  Fs.link fs "/data/d1/file" "/data/d2/link";
  Fs.link fs "/data/d1/file" "/data/also-here";
  let lib = tape_lib "t0" in
  let r = dump_to fs lib ~subtree:"/data" ~label:"data" in
  checki "stored once" 1 r.Dump.files_dumped;
  let rfs, _ = make_fs "dst" in
  let session = Restore.session ~fs:rfs ~target:"/r" () in
  ignore (restore_from session lib);
  let ino p = Option.get (Fs.lookup rfs p) in
  checki "link restored as link" (ino "/r/d1/file") (ino "/r/d2/link");
  checki "all three names" (ino "/r/d1/file") (ino "/r/also-here");
  checki "nlink" 3 (Fs.getattr rfs "/r/d1/file").Inode.nlink;
  assert_equal_trees (fs, "/data") (rfs, "/r");
  (* toc lists every name *)
  let toc = Restore.table_of_contents (Tapeio.source lib) in
  let paths = List.map (fun e -> e.Restore.rel_path) toc in
  checkb "toc has the alias" true (List.mem "d2/link" paths)

let test_hardlinks_incremental () =
  let fs, _ = make_fs "src" in
  ignore (Fs.mkdir fs "/data" ~perms:0o755);
  ignore (Fs.create fs "/data/a" ~perms:0o644);
  Fs.write fs "/data/a" ~offset:0 "linked";
  Fs.link fs "/data/a" "/data/b";
  let dd = Dumpdates.create () in
  let lib0 = tape_lib "t0" in
  ignore (dump_to ~level:0 ~dumpdates:dd fs lib0 ~subtree:"/data" ~label:"d");
  (* between dumps: drop one link, add another *)
  Fs.unlink fs "/data/b";
  Fs.link fs "/data/a" "/data/c";
  let lib1 = tape_lib "t1" in
  ignore (dump_to ~level:1 ~dumpdates:dd fs lib1 ~subtree:"/data" ~label:"d");
  let rfs, _ = make_fs "dst" in
  let session = Restore.session ~fs:rfs ~target:"/r" () in
  ignore (restore_from session lib0);
  ignore (restore_from session lib1);
  checkb "b gone" true (Fs.lookup rfs "/r/b" = None);
  checki "a and c share the inode" (Option.get (Fs.lookup rfs "/r/a"))
    (Option.get (Fs.lookup rfs "/r/c"));
  assert_equal_trees (fs, "/data") (rfs, "/r")

let test_hardlink_selective_restore () =
  let fs, _ = make_fs "src" in
  ignore (Fs.mkdir fs "/data" ~perms:0o755);
  ignore (Fs.mkdir fs "/data/keep" ~perms:0o755);
  ignore (Fs.create fs "/data/primary" ~perms:0o644);
  Fs.write fs "/data/primary" ~offset:0 "reachable via alias";
  Fs.link fs "/data/primary" "/data/keep/alias";
  let lib = tape_lib "t0" in
  ignore (dump_to fs lib ~subtree:"/data" ~label:"d");
  let rfs, _ = make_fs "dst" in
  let session = Restore.session ~fs:rfs ~target:"/r" () in
  (* select only the secondary name: the content must land there *)
  let r = Restore.apply ~select:[ "keep/alias" ] session (Tapeio.source lib) in
  checki "one file" 1 r.Restore.files_restored;
  checks "content under the selected name" "reachable via alias"
    (Fs.read rfs "/r/keep/alias" ~offset:0 ~len:100);
  checkb "unselected primary not restored" true (Fs.lookup rfs "/r/primary" = None)

let test_verify_clean () =
  let fs, _, _ = populated ~bytes:500_000 "src" in
  let lib = tape_lib "t0" in
  ignore (dump_to fs lib ~subtree:"/data" ~label:"data");
  match Restore.compare ~fs ~target:"/data" (Tapeio.source lib) with
  | Ok () -> ()
  | Error diffs -> Alcotest.failf "clean verify failed: %s" (String.concat "; " diffs)

let test_verify_detects_tampering () =
  let fs, _, _ = populated ~bytes:500_000 "src" in
  ignore (Fs.create fs "/data/watched.txt" ~perms:0o600);
  Fs.write fs "/data/watched.txt" ~offset:0 "original contents";
  let lib = tape_lib "t0" in
  ignore (dump_to fs lib ~subtree:"/data" ~label:"data");
  (* tamper with the live system after the dump *)
  Fs.write fs "/data/watched.txt" ~offset:0 "TAMPERED contents";
  Fs.set_perms fs "/data/watched.txt" ~perms:0o777;
  Fs.unlink fs (List.hd (Generator.file_paths fs "/data"));
  ignore (Fs.create fs "/data/intruder.bin" ~perms:0o644);
  match Restore.compare ~fs ~target:"/data" (Tapeio.source lib) with
  | Ok () -> Alcotest.fail "verify should have flagged differences"
  | Error diffs ->
    let has needle =
      List.exists
        (fun d ->
          let rec find i =
            i + String.length needle <= String.length d
            && (String.sub d i (String.length needle) = needle || find (i + 1))
          in
          find 0)
        diffs
    in
    checkb "content diff found" true (has "content differs");
    checkb "perms diff found" true (has "perms");
    checkb "missing file found" true (has "missing");
    checkb "extra file found" true (has "not on tape")

(* Randomized end-to-end: a seeded op soup builds a tree, dump+restore must
   reproduce it exactly. Ten different shapes per run. *)
let test_randomized_roundtrips () =
  for seed = 100 to 109 do
    let fs, _ = make_fs ~blocks:16384 (Printf.sprintf "src%d" seed) in
    let rng = Repro_util.Prng.create seed in
    ignore (Fs.mkdir fs "/data" ~perms:0o755);
    let dirs = ref [ "/data" ] in
    let files = ref [] in
    for op = 0 to 120 do
      match Repro_util.Prng.int rng 10 with
      | 0 | 1 ->
        let parent = Repro_util.Prng.choose rng (Array.of_list !dirs) in
        let d = Printf.sprintf "%s/d%d" parent op in
        if Fs.lookup fs d = None then begin
          ignore (Fs.mkdir fs d ~perms:(Repro_util.Prng.choose rng [| 0o755; 0o700 |]));
          dirs := d :: !dirs
        end
      | 2 | 3 | 4 | 5 ->
        let parent = Repro_util.Prng.choose rng (Array.of_list !dirs) in
        let f = Printf.sprintf "%s/f%d" parent op in
        if Fs.lookup fs f = None then begin
          ignore (Fs.create fs f ~perms:0o644);
          let size = Repro_util.Prng.int_in rng 0 30_000 in
          if size > 0 then
            Fs.write fs f ~offset:0
              (String.init size (fun i -> Char.chr ((op + i) mod 256)));
          files := f :: !files
        end
      | 6 -> (
        match !files with
        | f :: rest ->
          Fs.unlink fs f;
          files := rest
        | [] -> ())
      | 7 -> (
        match !files with
        | f :: _ ->
          (* sparse extension *)
          Fs.write fs f ~offset:(Repro_util.Prng.int_in rng 50_000 200_000) "sparse!"
        | [] -> ())
      | 8 -> (
        match !files with
        | f :: _ -> Fs.set_xattr fs f ~name:"dos.name" ~value:"RANDOM~1.DAT"
        | [] -> ())
      | _ -> (
        match !files with
        | f :: _ -> Fs.truncate fs f ~size:(Repro_util.Prng.int_in rng 0 5_000)
        | [] -> ())
    done;
    let lib = tape_lib (Printf.sprintf "t%d" seed) in
    ignore (dump_to fs lib ~subtree:"/data" ~label:"data");
    let rfs, _ = make_fs ~blocks:16384 (Printf.sprintf "dst%d" seed) in
    let session = Restore.session ~fs:rfs ~target:"/r" () in
    ignore (restore_from session lib);
    (match Compare.trees ~check_times:true ~src:(fs, "/data") ~dst:(rfs, "/r") () with
    | Ok () -> ()
    | Error d -> Alcotest.failf "seed %d: %s" seed (String.concat "; " d))
  done

let test_session_persistence () =
  (* the restoresymtable: finish an incremental chain in a "new process" *)
  let fs, _, _ = populated ~bytes:400_000 "src" in
  let dd = Dumpdates.create () in
  let lib0 = tape_lib "t0" in
  ignore (dump_to ~level:0 ~dumpdates:dd fs lib0 ~subtree:"/data" ~label:"data");
  ignore (Fs.create fs "/data/later.txt" ~perms:0o644);
  Fs.write fs "/data/later.txt" ~offset:0 "second process";
  Fs.unlink fs (List.hd (Generator.file_paths fs "/data"));
  let lib1 = tape_lib "t1" in
  ignore (dump_to ~level:1 ~dumpdates:dd fs lib1 ~subtree:"/data" ~label:"data");
  let rfs, _ = make_fs "dst" in
  let session = Restore.session ~fs:rfs ~target:"/r" () in
  ignore (restore_from session lib0);
  (* process exit: persist the symbol table, drop the session *)
  let blob = Restore.save_session session in
  let session2 = Restore.load_session ~fs:rfs blob in
  ignore (restore_from session2 lib1);
  assert_equal_trees (fs, "/data") (rfs, "/r")

let test_dumpdates_levels () =
  let dd = Dumpdates.create () in
  Dumpdates.record dd ~label:"v" ~level:0 ~date:100.0;
  Dumpdates.record dd ~label:"v" ~level:1 ~date:200.0;
  Alcotest.(check (float 0.0)) "level 1 bases on 0" 100.0 (Dumpdates.base_date dd ~label:"v" ~level:1);
  Alcotest.(check (float 0.0)) "level 2 bases on 1" 200.0 (Dumpdates.base_date dd ~label:"v" ~level:2);
  Alcotest.(check (float 0.0)) "level 0 bases on epoch" 0.0 (Dumpdates.base_date dd ~label:"v" ~level:0);
  (* serialization round-trip *)
  let dd2 = Dumpdates.decode (Dumpdates.encode dd) in
  Alcotest.(check (option (float 0.0))) "persisted" (Some 200.0)
    (Dumpdates.get dd2 ~label:"v" ~level:1)

(* ------------------------- restore oracle ---------------------------- *)

(* Logical restore lends each block it cuts out of a tape record to the
   file system ([Fs.writev]) where it used to join the run and write the
   join ([Oracle.Restore_run]). Random level-0 and level-1 streams go
   into two file systems, each with NVRAM and a CPU to charge, one
   through each path. They must end with the same volume image and the
   same CPU charge to the bit; and a restore cut short at a random byte
   of its stream must leave the same NVRAM log (each write the old write
   cut into pieces) and, after a crash and a remount that replays it, the
   same volume again. *)
type rfile =
  | R_empty
  | R_block
  | R_partial of int
  | R_big of int * int
  | R_sparse of (int * int) list
  | R_symlink of int
  | R_link of int

type rchange =
  | C_rename of int * int
  | C_delete of int
  | C_new of rfile
  | C_overwrite of int * int * int
  | C_truncate of int * int

let gen_rfile =
  QCheck2.Gen.(
    frequency
      [
        (1, return R_empty);
        (2, return R_block);
        (2, map (fun n -> R_partial n) (int_range 1 4095));
        (2, map2 (fun k t -> R_big (k, t)) (int_range 2 40) (int_bound 4095));
        ( 2,
          map (fun l -> R_sparse l)
            (list_size (int_range 1 4) (pair (int_bound 60) (int_range 1 (20 * 4096)))) );
        (1, map (fun n -> R_symlink n) (int_range 1 300));
        (1, map (fun i -> R_link i) (int_bound 20));
      ])

let gen_restore_case =
  QCheck2.Gen.(
    let file = int_bound 20 in
    quad
      (list_size (int_range 1 10) (pair gen_rfile (int_bound 2)))
      (list_size (int_range 0 8)
         (frequency
            [
              (2, map2 (fun f d -> C_rename (f, d)) file (int_bound 2));
              (2, map (fun f -> C_delete f) file);
              (2, map (fun f -> C_new f) gen_rfile);
              ( 2,
                map3
                  (fun f o l -> C_overwrite (f, o, l))
                  file (int_bound 100_000) (int_range 1 20_000) );
              (1, map2 (fun f n -> C_truncate (f, n)) file (int_bound 100_000));
            ]))
      (pair bool (int_bound 1000))
      nat)

let rdirs = [| "/data/d0"; "/data/d1"; "/data/d1/s" |]

let noise seed len =
  let b = Bytes.create len in
  Repro_util.Prng.fill (Repro_util.Prng.create seed) b 0 len;
  Bytes.unsafe_to_string b

(* The source volume's level-0 and level-1 streams, each as its list of
   tape records. *)
let restore_streams (files, changes, _, seed) =
  let fs, _ = make_fs ~blocks:8192 "src" in
  List.iter (fun d -> ignore (Fs.mkdir fs d ~perms:0o755)) ("/data" :: Array.to_list rdirs);
  let paths = ref [||] in
  let attempt f = try f () with Fs.Error _ -> () in
  let make i (spec, d) =
    let path = Printf.sprintf "%s/f%d" rdirs.(d) i in
    let regular () = ignore (Fs.create fs path ~perms:0o644) in
    let write off len = Fs.write fs path ~offset:off (noise (seed + i + off) len) in
    attempt (fun () ->
        match spec with
        | R_empty -> regular ()
        | R_block ->
          regular ();
          write 0 4096
        | R_partial n ->
          regular ();
          write 0 n
        | R_big (k, tail) ->
          regular ();
          write 0 ((k * 4096) + tail)
        | R_sparse ws ->
          regular ();
          List.iter (fun (lbn, len) -> write (lbn * 4096) len) ws
        | R_symlink n -> Fs.symlink fs ~target:(String.make n 't') path
        | R_link _ when Array.length !paths = 0 -> regular ()
        | R_link j -> Fs.link fs (!paths).(j mod Array.length !paths) path);
    paths := Array.append !paths [| path |]
  in
  List.iteri make files;
  let dd = Dumpdates.create () in
  let lib0 = tape_lib "t0" in
  ignore (dump_to ~level:0 ~dumpdates:dd fs lib0 ~subtree:"/data" ~label:"data");
  let nth i = (!paths).(i mod Array.length !paths) in
  List.iteri
    (fun k change ->
      attempt (fun () ->
          match change with
          | C_rename (i, d) -> Fs.rename fs (nth i) (Printf.sprintf "%s/m%d" rdirs.(d) k)
          | C_delete i -> Fs.unlink fs (nth i)
          | C_new spec -> make (100 + k) (spec, k mod 3)
          | C_overwrite (i, off, len) -> Fs.write fs (nth i) ~offset:off (noise (seed + k) len)
          | C_truncate (i, size) -> Fs.truncate fs (nth i) ~size))
    changes;
  let lib1 = tape_lib "t1" in
  ignore (dump_to ~level:1 ~dumpdates:dd fs lib1 ~subtree:"/data" ~label:"data");
  let records lib =
    let next = Tapeio.records lib in
    let rec all acc = match next () with Some r -> all (r :: acc) | None -> List.rev acc in
    all []
  in
  (records lib0, records lib1)

(* The stream, ending after its first [cut] bytes. *)
let stream_source ?(cut = max_int) records =
  let rest = ref records and left = ref cut in
  Tapeio.source_of (fun () ->
      match !rest with
      | r :: tl when !left > 0 ->
        rest := tl;
        let r = if String.length r > !left then String.sub r 0 !left else r in
        left := !left - String.length r;
        Some r
      | _ -> None)

type rtarget = {
  t_fs : Fs.t ref;
  t_vol : Volume.t;
  t_cpu : Repro_sim.Resource.t;
  t_nvram : Repro_wafl.Nvram.t;
  t_config : Fs.config;
  t_session : Restore.session;
}

let rtarget () =
  let cpu = Repro_sim.Resource.create "cpu" in
  let config = { (Fs.default_config ()) with Fs.cpu = Some cpu } in
  let nvram = Repro_wafl.Nvram.create () in
  let vol = Volume.create ~label:"dst" (Volume.small_geometry ~data_blocks:8192) in
  let fs = Fs.mkfs ~config ~nvram vol in
  { t_fs = ref fs; t_vol = vol; t_cpu = cpu; t_nvram = nvram; t_config = config;
    t_session = Restore.session ~cpu ~fs ~target:"/r" () }

let restore_both ?cut (mine, oracle) records =
  let outcome f = match f () with r -> Ok r | exception e -> Error (Printexc.to_string e) in
  let a = outcome (fun () -> Restore.apply mine.t_session (stream_source ?cut records)) in
  let b =
    outcome (fun () ->
        Restore.apply_with ~write_run:Oracle.Restore_run.flush_run oracle.t_session
          (stream_source ?cut records))
  in
  a = b

let same_image a b =
  let n = Volume.size_blocks a.t_vol in
  let rec go vbn =
    vbn >= n
    || (String.equal (Volume.read a.t_vol vbn) (Volume.read b.t_vol vbn) && go (vbn + 1))
  in
  go 0
  && Int64.equal
       (Int64.bits_of_float (Repro_sim.Resource.busy a.t_cpu))
       (Int64.bits_of_float (Repro_sim.Resource.busy b.t_cpu))

(* The same log, but for each write's data: pieces, whose join is the
   oracle's one string, and the same logged size. *)
let same_log a b =
  let ea = Repro_wafl.Nvram.entries_tagged a.t_nvram ~tag:(Fs.generation !(a.t_fs))
  and eb = Repro_wafl.Nvram.entries_tagged b.t_nvram ~tag:(Fs.generation !(b.t_fs)) in
  List.length ea = List.length eb
  && List.for_all2
       (fun x y ->
         Repro_wafl.Nvram.op_size x = Repro_wafl.Nvram.op_size y
         &&
         match (x, y) with
         | ( Repro_wafl.Nvram.Write { path; offset; data },
             Repro_wafl.Nvram.Write { path = p; offset = o; data = [ d ] } ) ->
           String.equal path p && offset = o && String.equal (String.concat "" data) d
         | _ -> x = y)
       ea eb

let crash_and_remount t =
  Fs.crash !(t.t_fs);
  t.t_fs := Fs.mount ~config:t.t_config ~nvram:t.t_nvram t.t_vol

let prop_restore_equals_oracle =
  QCheck2.Test.make ~count:60 ~name:"restore: lent blocks = concat-and-write"
    gen_restore_case (fun ((_, _, (cut_level1, cut_per_mille), _) as case) ->
      let s0, s1 = restore_streams case in
      (* whole streams *)
      let pair = (rtarget (), rtarget ()) in
      let whole =
        restore_both pair s0
        && same_image (fst pair) (snd pair)
        && restore_both pair s1
        && same_image (fst pair) (snd pair)
      in
      (* a stream cut short, a crash, and a remount replaying the log *)
      let pair = (rtarget (), rtarget ()) in
      let ok0 = if cut_level1 then restore_both pair s0 else true in
      let cut_of records =
        List.fold_left (fun n r -> n + String.length r) 0 records * cut_per_mille / 1000
      in
      let records = if cut_level1 then s1 else s0 in
      let cut = restore_both ~cut:(cut_of records) pair records in
      let logged = same_log (fst pair) (snd pair) in
      crash_and_remount (fst pair);
      crash_and_remount (snd pair);
      whole && ok0 && cut && logged && same_image (fst pair) (snd pair))

let suite =
  [
    ("full dump/restore round trip", `Quick, test_full_roundtrip);
    ("multi-protocol attributes survive", `Quick, test_dump_preserves_multiprotocol_attrs);
    ("sparse files keep their holes", `Quick, test_sparse_file_roundtrip);
    ("incremental round trip", `Quick, test_incremental_roundtrip);
    ("three-level incremental chain", `Quick, test_incremental_chain_three_levels);
    ("incremental dumps only changes", `Quick, test_incremental_only_dumps_changes);
    ("selective single-file restore", `Quick, test_selective_restore);
    ("selective subtree restore", `Quick, test_selective_restore_subtree);
    ("table of contents", `Quick, test_table_of_contents);
    ("exclusion filters", `Quick, test_exclusion_filters);
    ("tape corruption loses one file", `Quick, test_corruption_loses_only_one_file);
    ("dump spans multiple cartridges", `Quick, test_dump_spans_multiple_tapes);
    ("empty directory round trip", `Quick, test_empty_directory_roundtrip);
    ("snapshot consistency under live churn", `Quick, test_snapshot_consistency_under_churn);
    ("symbolic links round trip", `Quick, test_symlinks_roundtrip);
    ("hard links round trip", `Quick, test_hardlinks_roundtrip);
    ("hard links across incrementals", `Quick, test_hardlinks_incremental);
    ("hard link selective restore", `Quick, test_hardlink_selective_restore);
    ("verify (restore -C): clean", `Quick, test_verify_clean);
    ("verify detects tampering", `Quick, test_verify_detects_tampering);
    ("randomized round trips", `Slow, test_randomized_roundtrips);
    ("session persistence (restoresymtable)", `Quick, test_session_persistence);
    ("dumpdates level logic", `Quick, test_dumpdates_levels);
  ]

let () =
  Alcotest.run "dump"
    [
      ("logical", suite);
      ( "oracle",
        [ QCheck_alcotest.to_alcotest ~long:false prop_restore_equals_oracle ] );
    ]

(* WAFL file-system tests: structure, consistency points, snapshots, NVRAM
   replay, quota trees, extended attributes, and fsck. *)

module Volume = Repro_block.Volume
module Fs = Repro_wafl.Fs
module Inode = Repro_wafl.Inode
module Nvram = Repro_wafl.Nvram
module Blockmap = Repro_wafl.Blockmap
module Prng = Repro_util.Prng

let check = Alcotest.check
let checks = check Alcotest.string
let checki = check Alcotest.int
let checkb = check Alcotest.bool

let make_vol ?(blocks = 8192) () =
  Volume.create ~label:"test" (Volume.small_geometry ~data_blocks:blocks)

let make_fs ?nvram ?(blocks = 8192) () =
  let vol = make_vol ~blocks () in
  (Fs.mkfs ?nvram vol, vol)

let fsck_clean fs =
  match Fs.fsck fs with
  | Ok () -> ()
  | Error problems -> Alcotest.failf "fsck: %s" (String.concat "; " problems)

let test_mkfs_mount () =
  let fs, vol = make_fs () in
  checki "root exists" Repro_wafl.Layout.root_ino (Option.get (Fs.lookup fs "/"));
  Fs.cp fs;
  let fs2 = Fs.mount vol in
  checki "remounted root" Repro_wafl.Layout.root_ino (Option.get (Fs.lookup fs2 "/"));
  fsck_clean fs2

let test_create_write_read () =
  let fs, _ = make_fs () in
  let _ino = Fs.create fs "/hello.txt" ~perms:0o644 in
  Fs.write fs "/hello.txt" ~offset:0 "hello, world";
  checks "read back" "hello, world" (Fs.read fs "/hello.txt" ~offset:0 ~len:100);
  checks "partial" "world" (Fs.read fs "/hello.txt" ~offset:7 ~len:5);
  let attr = Fs.getattr fs "/hello.txt" in
  checki "size" 12 attr.Inode.size;
  fsck_clean fs

let test_large_file_indirect () =
  let fs, vol = make_fs ~blocks:16384 () in
  ignore (Fs.create fs "/big" ~perms:0o644);
  (* 20 MB would not fit; write enough to exercise single and double
     indirect levels: ndirect=16, ppb=1024 -> need > (16+1024) blocks for
     double indirection; that's 4 MB+. Use a sparse write instead. *)
  let rng = Prng.create 42 in
  let chunk i = String.init 1000 (fun j -> Char.chr ((i + j + Prng.int rng 7) mod 256)) in
  let written = Array.init 40 (fun i -> chunk i) in
  Array.iteri (fun i data -> Fs.write fs "/big" ~offset:(i * 50_000) data) written;
  (* sparse tail to force a double-indirect pointer: block 1050 *)
  Fs.write fs "/big" ~offset:(1050 * 4096) "tail-data";
  Fs.cp fs;
  let fs2 = Fs.mount vol in
  Array.iteri
    (fun i data ->
      checks
        (Printf.sprintf "chunk %d" i)
        data
        (Fs.read fs2 "/big" ~offset:(i * 50_000) ~len:1000))
    written;
  checks "tail" "tail-data" (Fs.read fs2 "/big" ~offset:(1050 * 4096) ~len:9);
  (* hole reads as zeros *)
  checks "hole" (String.make 4 '\000') (Fs.read fs2 "/big" ~offset:(900 * 4096) ~len:4);
  fsck_clean fs2

let test_mkdir_tree () =
  let fs, _ = make_fs () in
  ignore (Fs.mkdir fs "/a" ~perms:0o755);
  ignore (Fs.mkdir fs "/a/b" ~perms:0o755);
  ignore (Fs.create fs "/a/b/c.txt" ~perms:0o644);
  Fs.write fs "/a/b/c.txt" ~offset:0 "deep";
  checks "deep read" "deep" (Fs.read fs "/a/b/c.txt" ~offset:0 ~len:10);
  let names = List.map fst (Fs.readdir fs "/a") in
  check (Alcotest.list Alcotest.string) "readdir /a" [ "b" ] names;
  fsck_clean fs

let test_unlink_rmdir () =
  let fs, _ = make_fs () in
  ignore (Fs.mkdir fs "/d" ~perms:0o755);
  ignore (Fs.create fs "/d/f" ~perms:0o644);
  Fs.write fs "/d/f" ~offset:0 (String.make 10_000 'x');
  Fs.cp fs;
  let used_before = Fs.used_blocks fs in
  Fs.unlink fs "/d/f";
  Fs.cp fs;
  checkb "blocks freed" true (Fs.used_blocks fs < used_before);
  checkb "gone" true (Fs.lookup fs "/d/f" = None);
  (match Fs.rmdir fs "/d" with () -> ());
  checkb "dir gone" true (Fs.lookup fs "/d" = None);
  (* rmdir of non-empty must fail *)
  ignore (Fs.mkdir fs "/e" ~perms:0o755);
  ignore (Fs.create fs "/e/f" ~perms:0o644);
  (try
     Fs.rmdir fs "/e";
     Alcotest.fail "rmdir of non-empty dir should fail"
   with Fs.Error _ -> ());
  fsck_clean fs

let test_hard_links () =
  let fs, vol = make_fs () in
  ignore (Fs.mkdir fs "/a" ~perms:0o755);
  ignore (Fs.mkdir fs "/b" ~perms:0o755);
  ignore (Fs.create fs "/a/orig" ~perms:0o644);
  Fs.write fs "/a/orig" ~offset:0 "shared content";
  Fs.link fs "/a/orig" "/b/alias";
  checki "nlink 2" 2 (Fs.getattr fs "/a/orig").Inode.nlink;
  checki "same inode" (Option.get (Fs.lookup fs "/a/orig"))
    (Option.get (Fs.lookup fs "/b/alias"));
  (* a write through one name is visible through the other *)
  Fs.write fs "/b/alias" ~offset:0 "SHARED";
  checks "visible via both" "SHARED content" (Fs.read fs "/a/orig" ~offset:0 ~len:14);
  (* unlink one name: the file lives on *)
  Fs.unlink fs "/a/orig";
  checki "nlink 1" 1 (Fs.getattr fs "/b/alias").Inode.nlink;
  checks "content intact" "SHARED content" (Fs.read fs "/b/alias" ~offset:0 ~len:14);
  (* persists across mount *)
  Fs.link fs "/b/alias" "/b/alias2";
  Fs.cp fs;
  let fs2 = Fs.mount vol in
  checki "links persist" (Option.get (Fs.lookup fs2 "/b/alias"))
    (Option.get (Fs.lookup fs2 "/b/alias2"));
  (* unlink the last name frees the inode *)
  Fs.unlink fs2 "/b/alias";
  Fs.unlink fs2 "/b/alias2";
  checkb "gone" true (Fs.lookup fs2 "/b/alias2" = None);
  (* no hard links to directories *)
  (try
     Fs.link fs2 "/a" "/dirlink";
     Alcotest.fail "directory hard link should fail"
   with Fs.Error _ -> ());
  fsck_clean fs2

let test_symlinks () =
  let fs, vol = make_fs () in
  ignore (Fs.mkdir fs "/bin" ~perms:0o755);
  ignore (Fs.create fs "/bin/real" ~perms:0o755);
  Fs.write fs "/bin/real" ~offset:0 "#!/bin/sh";
  Fs.symlink fs ~target:"/bin/real" "/bin/alias";
  checks "readlink" "/bin/real" (Fs.readlink fs "/bin/alias");
  checkb "kind" true ((Fs.getattr fs "/bin/alias").Inode.kind = Inode.Symlink);
  (* namei does not follow: reading the link as a file is an error *)
  (try
     ignore (Fs.read fs "/bin/alias" ~offset:0 ~len:4);
     Alcotest.fail "read through symlink should fail (lstat semantics)"
   with Fs.Error _ -> ());
  (* rename and unlink treat it as a leaf *)
  Fs.rename fs "/bin/alias" "/bin/alias2";
  checks "renamed" "/bin/real" (Fs.readlink fs "/bin/alias2");
  (* persists across mount *)
  Fs.cp fs;
  let fs2 = Fs.mount vol in
  checks "persisted" "/bin/real" (Fs.readlink fs2 "/bin/alias2");
  Fs.unlink fs2 "/bin/alias2";
  checkb "unlinked" true (Fs.lookup fs2 "/bin/alias2" = None);
  (try
     ignore (Fs.readlink fs2 "/bin/real");
     Alcotest.fail "readlink of a file should fail"
   with Fs.Error _ -> ());
  fsck_clean fs2

let test_rename_onto_own_link () =
  let fs, _ = make_fs () in
  ignore (Fs.create fs "/f" ~perms:0o644);
  Fs.write fs "/f" ~offset:0 "data";
  Fs.link fs "/f" "/g";
  (* POSIX: rename onto another name of the same file removes the source *)
  Fs.rename fs "/f" "/g";
  checkb "source gone" true (Fs.lookup fs "/f" = None);
  checki "nlink back to 1" 1 (Fs.getattr fs "/g").Inode.nlink;
  checks "content" "data" (Fs.read fs "/g" ~offset:0 ~len:4);
  fsck_clean fs

let test_rename () =
  let fs, _ = make_fs () in
  ignore (Fs.mkdir fs "/src" ~perms:0o755);
  ignore (Fs.mkdir fs "/dst" ~perms:0o755);
  ignore (Fs.create fs "/src/f" ~perms:0o644);
  Fs.write fs "/src/f" ~offset:0 "payload";
  Fs.rename fs "/src/f" "/dst/g";
  checkb "src gone" true (Fs.lookup fs "/src/f" = None);
  checks "moved" "payload" (Fs.read fs "/dst/g" ~offset:0 ~len:10);
  (* rename over an existing file replaces it *)
  ignore (Fs.create fs "/dst/h" ~perms:0o644);
  Fs.write fs "/dst/h" ~offset:0 "old";
  Fs.rename fs "/dst/g" "/dst/h";
  checks "replaced" "payload" (Fs.read fs "/dst/h" ~offset:0 ~len:10);
  (* directory rename across parents fixes ".." *)
  ignore (Fs.mkdir fs "/src/sub" ~perms:0o755);
  ignore (Fs.create fs "/src/sub/x" ~perms:0o644);
  Fs.rename fs "/src/sub" "/dst/sub";
  checkb "dir moved" true (Fs.lookup fs "/dst/sub/x" <> None);
  fsck_clean fs

let test_truncate () =
  let fs, _ = make_fs () in
  ignore (Fs.create fs "/t" ~perms:0o644);
  Fs.write fs "/t" ~offset:0 (String.make 9000 'a');
  Fs.truncate fs "/t" ~size:5000;
  checki "size" 5000 (Fs.getattr fs "/t").Inode.size;
  checks "tail cut" "" (Fs.read fs "/t" ~offset:5000 ~len:10);
  (* extending a truncated file reads zeros in the gap *)
  Fs.write fs "/t" ~offset:6000 "z";
  checks "gap zeros" (String.make 10 '\000') (Fs.read fs "/t" ~offset:5010 ~len:10);
  fsck_clean fs

let test_persistence_across_mounts () =
  let nfiles = 50 in
  let fs, vol = make_fs () in
  let rng = Prng.create 7 in
  let contents =
    Array.init nfiles (fun i ->
        let path = Printf.sprintf "/f%03d" i in
        let data = String.init (Prng.int_in rng 1 9000) (fun j -> Char.chr ((i + j) mod 256)) in
        ignore (Fs.create fs path ~perms:0o644);
        Fs.write fs path ~offset:0 data;
        (path, data))
  in
  Fs.cp fs;
  let fs2 = Fs.mount vol in
  Array.iter
    (fun (path, data) ->
      checks path data (Fs.read fs2 path ~offset:0 ~len:(String.length data)))
    contents;
  fsck_clean fs2

let test_crash_loses_uncommitted () =
  let fs, vol = make_fs () in
  ignore (Fs.create fs "/committed" ~perms:0o644);
  Fs.write fs "/committed" ~offset:0 "safe";
  Fs.cp fs;
  ignore (Fs.create fs "/lost" ~perms:0o644);
  Fs.write fs "/lost" ~offset:0 "gone";
  Fs.crash fs;
  let fs2 = Fs.mount vol in
  checks "committed survives" "safe" (Fs.read fs2 "/committed" ~offset:0 ~len:10);
  checkb "uncommitted lost" true (Fs.lookup fs2 "/lost" = None);
  fsck_clean fs2

let test_nvram_replay () =
  let nvram = Nvram.create () in
  let vol = make_vol () in
  let fs = Fs.mkfs ~nvram vol in
  ignore (Fs.create fs "/committed" ~perms:0o644);
  Fs.write fs "/committed" ~offset:0 "safe";
  Fs.cp fs;
  ignore (Fs.create fs "/logged" ~perms:0o644);
  Fs.write fs "/logged" ~offset:0 "replayed";
  Fs.crash fs;
  let fs2 = Fs.mount ~nvram vol in
  checks "committed survives" "safe" (Fs.read fs2 "/committed" ~offset:0 ~len:10);
  checks "nvram replayed" "replayed" (Fs.read fs2 "/logged" ~offset:0 ~len:10);
  fsck_clean fs2

let test_nvram_failure_keeps_consistency () =
  let nvram = Nvram.create () in
  let vol = make_vol () in
  let fs = Fs.mkfs ~nvram vol in
  ignore (Fs.create fs "/a" ~perms:0o644);
  Fs.write fs "/a" ~offset:0 "data";
  Fs.cp fs;
  ignore (Fs.create fs "/b" ~perms:0o644);
  Nvram.fail nvram;
  Fs.crash fs;
  (* "If the filer's NVRAM fails, the WAFL file system is still completely
     self consistent; the only damage is that a few seconds worth of
     operations may be lost." *)
  let fs2 = Fs.mount ~nvram vol in
  checks "old data fine" "data" (Fs.read fs2 "/a" ~offset:0 ~len:10);
  checkb "logged op lost" true (Fs.lookup fs2 "/b" = None);
  fsck_clean fs2;
  (* The failure is sticky: a dead log must not silently accept operations
     it cannot protect. Fail-stop until the hardware is replaced. *)
  checkb "nvram reports failed" true (Nvram.failed nvram);
  (match Fs.create fs2 "/c" ~perms:0o644 with
  | _ -> Alcotest.fail "op on failed NVRAM should raise"
  | exception Fs.Error _ -> ());
  Nvram.replace nvram;
  (* Use a fresh path: the fail-stop create above may have mutated the live
     tree before the log raised, so "/c" can already exist in memory. *)
  ignore (Fs.create fs2 "/d" ~perms:0o644);
  Fs.write fs2 "/d" ~offset:0 "post-replace";
  Fs.crash fs2;
  let fs3 = Fs.mount ~nvram vol in
  checks "replacement logs again" "post-replace" (Fs.read fs3 "/d" ~offset:0 ~len:12);
  fsck_clean fs3

let test_snapshot_basic () =
  let fs, _ = make_fs () in
  ignore (Fs.create fs "/file" ~perms:0o644);
  Fs.write fs "/file" ~offset:0 "version-1";
  Fs.snapshot_create fs "snap1";
  Fs.write fs "/file" ~offset:0 "version-2";
  Fs.cp fs;
  checks "live changed" "version-2" (Fs.read fs "/file" ~offset:0 ~len:9);
  let v = Fs.snapshot_view fs "snap1" in
  let ino = Option.get (Fs.View.lookup v "/file") in
  checks "snapshot frozen" "version-1" (Fs.View.read v ino ~offset:0 ~len:9);
  fsck_clean fs

let test_snapshot_protects_deleted_file () =
  let fs, _ = make_fs () in
  ignore (Fs.create fs "/doomed" ~perms:0o644);
  Fs.write fs "/doomed" ~offset:0 (String.make 20_000 'd');
  Fs.snapshot_create fs "keeper";
  Fs.unlink fs "/doomed";
  Fs.cp fs;
  checkb "live gone" true (Fs.lookup fs "/doomed" = None);
  let v = Fs.snapshot_view fs "keeper" in
  let ino = Option.get (Fs.View.lookup v "/doomed") in
  checks "snapshot still has it"
    (String.make 100 'd')
    (Fs.View.read v ino ~offset:0 ~len:100);
  (* churn the live fs; snapshot content must stay intact (COW) *)
  for i = 0 to 30 do
    let p = Printf.sprintf "/churn%d" i in
    ignore (Fs.create fs p ~perms:0o644);
    Fs.write fs p ~offset:0 (String.make 8000 (Char.chr (65 + (i mod 26))));
    Fs.cp fs
  done;
  checks "snapshot survives churn"
    (String.make 100 'd')
    (Fs.View.read v ino ~offset:0 ~len:100);
  fsck_clean fs

let test_snapshot_delete_frees () =
  let fs, _ = make_fs () in
  ignore (Fs.create fs "/f" ~perms:0o644);
  Fs.write fs "/f" ~offset:0 (String.make 40_000 'x');
  Fs.snapshot_create fs "s";
  Fs.unlink fs "/f";
  Fs.cp fs;
  let free_with_snap = Fs.free_blocks fs in
  Fs.snapshot_delete fs "s";
  let free_after = Fs.free_blocks fs in
  checkb "deleting snapshot frees blocks" true (free_after > free_with_snap);
  checkb "snapshot gone" true (Fs.snapshots fs = []);
  fsck_clean fs

let test_snapshot_persists_across_mount () =
  let fs, vol = make_fs () in
  ignore (Fs.create fs "/f" ~perms:0o644);
  Fs.write fs "/f" ~offset:0 "snapdata";
  Fs.snapshot_create fs "persist";
  Fs.write fs "/f" ~offset:0 "newdata!";
  Fs.cp fs;
  let fs2 = Fs.mount vol in
  let infos = Fs.snapshots fs2 in
  checki "one snapshot" 1 (List.length infos);
  checks "name" "persist" (List.hd infos).Fs.name;
  let v = Fs.snapshot_view fs2 "persist" in
  let ino = Option.get (Fs.View.lookup v "/f") in
  checks "content" "snapdata" (Fs.View.read v ino ~offset:0 ~len:8);
  fsck_clean fs2

let test_snapshot_limit () =
  let fs, _ = make_fs ~blocks:16384 () in
  for i = 1 to Repro_wafl.Layout.max_snapshots do
    Fs.snapshot_create fs (Printf.sprintf "s%d" i)
  done;
  (try
     Fs.snapshot_create fs "one-too-many";
     Alcotest.fail "snapshot over the limit should fail"
   with Fs.Error _ -> ());
  checki "count" Repro_wafl.Layout.max_snapshots (List.length (Fs.snapshots fs))

let test_xattrs () =
  let fs, vol = make_fs () in
  ignore (Fs.create fs "/doc.txt" ~perms:0o644);
  Fs.set_xattr fs "/doc.txt" ~name:"dos.name" ~value:"DOC~1.TXT";
  Fs.set_xattr fs "/doc.txt" ~name:"nt.acl" ~value:"D:(A;;GA;;;WD)";
  Fs.set_dos_flags fs "/doc.txt" ~flags:0x21;
  Fs.cp fs;
  let fs2 = Fs.mount vol in
  checks "dos name" "DOC~1.TXT" (Option.get (Fs.get_xattr fs2 "/doc.txt" ~name:"dos.name"));
  checks "acl" "D:(A;;GA;;;WD)" (Option.get (Fs.get_xattr fs2 "/doc.txt" ~name:"nt.acl"));
  checki "dos flags" 0x21 (Fs.getattr fs2 "/doc.txt").Inode.dos_flags;
  fsck_clean fs2

let test_qtrees () =
  let fs, _ = make_fs () in
  let q1 = Fs.qtree_create fs "/proj1" ~perms:0o755 in
  let q2 = Fs.qtree_create fs "/proj2" ~perms:0o755 in
  checkb "distinct ids" true (q1 <> q2);
  ignore (Fs.create fs "/proj1/file" ~perms:0o644);
  ignore (Fs.mkdir fs "/proj1/sub" ~perms:0o755);
  ignore (Fs.create fs "/proj1/sub/deep" ~perms:0o644);
  checki "inherited" q1 (Fs.qtree_of fs "/proj1/file");
  checki "inherited deep" q1 (Fs.qtree_of fs "/proj1/sub/deep");
  checki "other tree" q2 (Fs.qtree_of fs "/proj2");
  fsck_clean fs

let test_qtree_quotas () =
  let fs, vol = make_fs () in
  let q = Fs.qtree_create fs "/proj" ~perms:0o755 in
  ignore (Fs.create fs "/proj/a" ~perms:0o644);
  Fs.write fs "/proj/a" ~offset:0 (String.make 10_000 'a');
  checki "usage tracks writes" 10_000 (Fs.qtree_usage fs ~qtree:q);
  Fs.truncate fs "/proj/a" ~size:4_000;
  checki "usage tracks truncate" 4_000 (Fs.qtree_usage fs ~qtree:q);
  (* set a limit and hit it *)
  Fs.set_qtree_limit fs "/proj" ~limit:(Some 8_000);
  Alcotest.(check (option int)) "limit readable" (Some 8_000) (Fs.qtree_limit fs ~qtree:q);
  Fs.write fs "/proj/a" ~offset:4_000 (String.make 3_000 'b');
  (try
     Fs.write fs "/proj/a" ~offset:7_000 (String.make 5_000 'c');
     Alcotest.fail "expected quota error"
   with Fs.Error _ -> ());
  (* overwrites within the file are free *)
  Fs.write fs "/proj/a" ~offset:0 (String.make 7_000 'd');
  (* deleting frees quota *)
  ignore (Fs.create fs "/proj/b" ~perms:0o644);
  Fs.unlink fs "/proj/a";
  checki "usage after unlink" 0 (Fs.qtree_usage fs ~qtree:q);
  Fs.write fs "/proj/b" ~offset:0 (String.make 7_500 'e');
  (* usage and limits survive a remount *)
  Fs.cp fs;
  let fs2 = Fs.mount vol in
  checki "usage rebuilt at mount" 7_500 (Fs.qtree_usage fs2 ~qtree:q);
  Alcotest.(check (option int)) "limit persisted" (Some 8_000)
    (Fs.qtree_limit fs2 ~qtree:q);
  (try
     Fs.write fs2 "/proj/b" ~offset:7_500 (String.make 1_000 'f');
     Alcotest.fail "quota enforced after remount"
   with Fs.Error _ -> ());
  (* removing the limit reopens the tree *)
  Fs.set_qtree_limit fs2 "/proj" ~limit:None;
  Fs.write fs2 "/proj/b" ~offset:7_500 (String.make 1_000 'f');
  fsck_clean fs2

let test_auto_cp () =
  let config = { (Fs.default_config ()) with Fs.auto_cp_ops = 10 } in
  let vol = make_vol () in
  let fs = Fs.mkfs ~config vol in
  let gen0 = Fs.generation fs in
  for i = 0 to 25 do
    ignore (Fs.create fs (Printf.sprintf "/auto%d" i) ~perms:0o644)
  done;
  checkb "auto CPs happened" true (Fs.generation fs > gen0 + 1);
  fsck_clean fs

let test_errors () =
  let fs, _ = make_fs () in
  let expect_error f =
    try
      f ();
      Alcotest.fail "expected Fs.Error"
    with Fs.Error _ -> ()
  in
  expect_error (fun () -> ignore (Fs.create fs "/missing/file" ~perms:0o644));
  expect_error (fun () -> Fs.read fs "/nope" ~offset:0 ~len:1 |> ignore);
  ignore (Fs.create fs "/dup" ~perms:0o644);
  expect_error (fun () -> ignore (Fs.create fs "/dup" ~perms:0o644));
  expect_error (fun () -> Fs.unlink fs "/nope");
  expect_error (fun () -> ignore (Fs.mkdir fs "/dup/sub" ~perms:0o755));
  expect_error (fun () -> Fs.write fs "/" ~offset:0 "not a file")

let test_fsinfo_torn_write () =
  let fs, vol = make_fs () in
  ignore (Fs.create fs "/x" ~perms:0o644);
  Fs.write fs "/x" ~offset:0 "resilient";
  Fs.cp fs;
  Fs.crash fs;
  (* Corrupt the primary fsinfo copy; mount must fall back to the backup. *)
  let junk = String.make 4096 '\xde' in
  Volume.write vol Repro_wafl.Layout.fsinfo_vbn_primary junk;
  let fs2 = Fs.mount vol in
  checks "backup copy used" "resilient" (Fs.read fs2 "/x" ~offset:0 ~len:9)

let test_volume_full () =
  let fs, _ = make_fs ~blocks:512 () in
  ignore (Fs.create fs "/filler" ~perms:0o644);
  try
    for i = 0 to 1000 do
      Fs.write fs "/filler" ~offset:(i * 4096) (String.make 4096 'f');
      if i mod 32 = 0 then Fs.cp fs
    done;
    Alcotest.fail "expected volume-full error"
  with Fs.Error _ -> ()

(* Model-based property: arbitrary interleavings of writes and truncates
   against one file must agree with a plain byte-buffer model, including
   across a CP + remount. *)
type file_op = Write of int * string | Trunc of int

let gen_file_ops =
  QCheck2.Gen.(
    list_size (int_range 1 25)
      (oneof
         [
           map2
             (fun off s -> Write (off, s))
             (int_bound 120_000)
             (string_size ~gen:(char_range 'a' 'z') (int_range 1 9000));
           map (fun n -> Trunc n) (int_bound 130_000);
         ]))

let prop_file_model =
  QCheck2.Test.make ~count:30 ~name:"fs file ops agree with byte-buffer model"
    gen_file_ops (fun ops ->
      let fs, vol = make_fs ~blocks:16384 () in
      ignore (Fs.create fs "/m" ~perms:0o644);
      let model = Buffer.create 1024 in
      let model_contents () = Buffer.contents model in
      let model_set s =
        Buffer.clear model;
        Buffer.add_string model s
      in
      List.iter
        (fun op ->
          match op with
          | Write (off, data) ->
            Fs.write fs "/m" ~offset:off data;
            let cur = model_contents () in
            let len = Stdlib.max (String.length cur) (off + String.length data) in
            let b = Bytes.make len '\000' in
            Bytes.blit_string cur 0 b 0 (String.length cur);
            Bytes.blit_string data 0 b off (String.length data);
            model_set (Bytes.to_string b)
          | Trunc size ->
            Fs.truncate fs "/m" ~size;
            let cur = model_contents () in
            if size <= String.length cur then model_set (String.sub cur 0 size)
            else model_set (cur ^ String.make (size - String.length cur) '\000'))
        ops;
      let expect = model_contents () in
      let live = Fs.read fs "/m" ~offset:0 ~len:(String.length expect + 10) in
      if not (String.equal live expect) then false
      else begin
        (* survives commit + remount *)
        Fs.cp fs;
        let fs2 = Fs.mount vol in
        String.equal expect
          (Fs.read fs2 "/m" ~offset:0 ~len:(String.length expect + 10))
      end)

(* Damage on-disk metadata underneath the file system, then let
   fsck_repair put it right. *)
let test_fsck_repair () =
  let fs, vol = make_fs () in
  ignore (Fs.mkdir fs "/d" ~perms:0o755);
  ignore (Fs.create fs "/d/f" ~perms:0o644);
  Fs.write fs "/d/f" ~offset:0 "content";
  Fs.cp fs;
  let view = Fs.active_view fs in
  (* 1. dangling dirent: splice an entry to a free inode into /d's block *)
  let d_ino = Option.get (Fs.View.lookup view "/d") in
  let d_vbn = Option.get (Fs.View.block_address view d_ino 0) in
  let damaged = Bytes.of_string (Volume.read vol d_vbn) in
  checkb "ghost fits" true (Repro_wafl.Dir.add damaged "ghost" (Fs.max_inodes fs - 1));
  Volume.write vol d_vbn (Bytes.unsafe_to_string damaged);
  (* 2. leaked block: set a free vbn's active bit in the on-disk block map *)
  let bm_vbn = Option.get (Fs.View.block_address view Repro_wafl.Layout.blockmap_ino 0) in
  let bm_block = Bytes.of_string (Volume.read vol bm_vbn) in
  let victim_vbn =
    (* find a word that is zero within this block-map block *)
    let rec find i =
      if i >= 1024 then Alcotest.fail "no free vbn in first map block"
      else if Bytes.get_int32_le bm_block (i * 4) = 0l then i
      else find (i + 1)
    in
    find 2
  in
  Bytes.set_int32_le bm_block (victim_vbn * 4) 1l;
  Volume.write vol bm_vbn (Bytes.unsafe_to_string bm_block);
  (* remount to pick the damage up from disk *)
  Fs.crash fs;
  let fs2 = Fs.mount vol in
  (match Fs.fsck fs2 with
  | Ok () -> Alcotest.fail "fsck should have found the damage"
  | Error problems -> checkb "problems found" true (List.length problems >= 2));
  let repairs = Fs.fsck_repair fs2 in
  checkb (Printf.sprintf "repairs made (%d)" (List.length repairs)) true
    (List.length repairs >= 2);
  fsck_clean fs2;
  (* the healthy data is untouched *)
  checks "file survives repair" "content" (Fs.read fs2 "/d/f" ~offset:0 ~len:7);
  checkb "ghost gone" true (Fs.lookup fs2 "/d/ghost" = None)

let test_snapshot_schedule () =
  let module Schedule = Repro_wafl.Schedule in
  let fs, vol = make_fs ~blocks:16384 () in
  ignore (Fs.create fs "/work.txt" ~perms:0o644);
  let sched = Schedule.create fs in
  let hour = 3600.0 in
  (* three simulated days, ticking hourly; write each "day" so snapshots
     capture distinct states *)
  for h = 1 to 72 do
    let now = Float.of_int h *. hour in
    if h mod 24 = 1 then
      Fs.write fs "/work.txt" ~offset:0 (Printf.sprintf "day %d" (1 + (h / 24)));
    ignore (Schedule.tick sched ~now)
  done;
  let hourlies = Schedule.hourlies sched in
  let nightlies = Schedule.nightlies sched in
  checkb
    (Printf.sprintf "6 hourlies kept (got %d)" (List.length hourlies))
    true
    (List.length hourlies = 6);
  checkb
    (Printf.sprintf "2 nightlies kept (got %d)" (List.length nightlies))
    true
    (List.length nightlies = 2);
  (* every retained snapshot is readable *)
  List.iter
    (fun name ->
      let v = Fs.snapshot_view fs name in
      ignore (Option.get (Fs.View.lookup v "/work.txt")))
    (hourlies @ nightlies);
  (* the schedule survives a remount *)
  Fs.cp fs;
  let fs2 = Fs.mount vol in
  let sched2 = Schedule.create fs2 in
  ignore (Schedule.tick sched2 ~now:(80.0 *. hour));
  checkb "still bounded after adoption" true
    (List.length (Schedule.hourlies sched2) <= 6);
  (* manual snapshots are never touched *)
  Fs.snapshot_create fs2 "keep-me";
  for h = 81 to 120 do
    ignore (Schedule.tick sched2 ~now:(Float.of_int h *. hour))
  done;
  checkb "manual snapshot untouched" true
    (List.exists (fun s -> s.Fs.name = "keep-me") (Fs.snapshots fs2));
  fsck_clean fs2

(* Randomized crash consistency: run the same seeded op soup against a
   reference file system (never crashed) and a victim that crashes at a
   random point and remounts with NVRAM. Replay must make the victim equal
   to the reference, and fsck must be clean — the paper's §2.2 recovery
   story. *)
let test_crash_consistency_randomized () =
  let module Compare = Repro_workload.Compare in
  for seed = 1 to 6 do
    let rng = Prng.create (1000 + seed) in
    let ref_fs, _ = make_fs () in
    let nvram = Nvram.create () in
    let vic_vol = make_vol () in
    let vic_fs = ref (Fs.mkfs ~nvram vic_vol) in
    let crash_at = Prng.int_in rng 10 80 in
    let dirs = ref [ "/" ] in
    let files = ref [] in
    let apply fs op_idx =
      match Prng.int (Prng.create (seed * 10_000 + op_idx)) 9 with
      | 0 ->
        let parent = List.nth !dirs 0 in
        let d = (if parent = "/" then "" else parent) ^ "/dir" ^ string_of_int op_idx in
        if Fs.lookup fs d = None then ignore (Fs.mkdir fs d ~perms:0o755)
      | 1 | 2 | 3 ->
        let parent = List.nth !dirs (op_idx mod List.length !dirs) in
        let f = (if parent = "/" then "" else parent) ^ "/f" ^ string_of_int op_idx in
        if Fs.lookup fs f = None then begin
          ignore (Fs.create fs f ~perms:0o644);
          Fs.write fs f ~offset:0 (String.init (100 * op_idx mod 9000) (fun i -> Char.chr ((i + op_idx) mod 256)))
        end
      | 4 | 5 -> (
        match !files with
        | f :: _ when Fs.lookup fs f <> None ->
          Fs.write fs f ~offset:(op_idx mod 3 * 4096) ("upd" ^ string_of_int op_idx)
        | _ -> ())
      | 6 -> (
        match !files with
        | f :: _ when Fs.lookup fs f <> None -> Fs.unlink fs f
        | _ -> ())
      | 7 -> if op_idx mod 4 = 0 then Fs.cp fs
      | _ -> (
        match !files with
        | f :: _ when Fs.lookup fs f <> None ->
          Fs.set_xattr fs f ~name:"k" ~value:(string_of_int op_idx)
        | _ -> ())
    in
    (* track namespace on the side so both systems see identical ops *)
    let record op_idx =
      (match Prng.int (Prng.create (seed * 10_000 + op_idx)) 9 with
      | 0 ->
        let parent = List.nth !dirs 0 in
        let d = (if parent = "/" then "" else parent) ^ "/dir" ^ string_of_int op_idx in
        if not (List.mem d !dirs) then dirs := !dirs @ [ d ]
      | 1 | 2 | 3 ->
        let parent = List.nth !dirs (op_idx mod List.length !dirs) in
        let f = (if parent = "/" then "" else parent) ^ "/f" ^ string_of_int op_idx in
        if not (List.mem f !files) then files := f :: !files
      | 6 -> (match !files with _ :: rest -> files := rest | [] -> ())
      | _ -> ())
    in
    for op_idx = 0 to 100 do
      (* reference first: the side-tracking must be identical for both *)
      let snapshot_dirs = !dirs and snapshot_files = !files in
      apply ref_fs op_idx;
      dirs := snapshot_dirs;
      files := snapshot_files;
      apply !vic_fs op_idx;
      record op_idx;
      if op_idx = crash_at then begin
        Fs.crash !vic_fs;
        vic_fs := Fs.mount ~nvram vic_vol
      end
    done;
    (match Compare.trees ~src:(ref_fs, "/") ~dst:(!vic_fs, "/") () with
    | Ok () -> ()
    | Error d ->
      Alcotest.failf "seed %d (crash at %d): %s" seed crash_at (String.concat "; " d));
    fsck_clean !vic_fs
  done

let suite =
  [
    ("mkfs and mount", `Quick, test_mkfs_mount);
    ("create, write, read", `Quick, test_create_write_read);
    ("large and sparse files (indirects)", `Quick, test_large_file_indirect);
    ("directory trees", `Quick, test_mkdir_tree);
    ("unlink and rmdir", `Quick, test_unlink_rmdir);
    ("hard links", `Quick, test_hard_links);
    ("symbolic links", `Quick, test_symlinks);
    ("rename onto own link", `Quick, test_rename_onto_own_link);
    ("rename", `Quick, test_rename);
    ("truncate", `Quick, test_truncate);
    ("persistence across mounts", `Quick, test_persistence_across_mounts);
    ("crash loses uncommitted work", `Quick, test_crash_loses_uncommitted);
    ("nvram replay", `Quick, test_nvram_replay);
    ("nvram failure keeps consistency", `Quick, test_nvram_failure_keeps_consistency);
    ("snapshot basic", `Quick, test_snapshot_basic);
    ("snapshot protects deleted file", `Quick, test_snapshot_protects_deleted_file);
    ("snapshot delete frees blocks", `Quick, test_snapshot_delete_frees);
    ("snapshot persists across mount", `Quick, test_snapshot_persists_across_mount);
    ("snapshot limit", `Quick, test_snapshot_limit);
    ("extended attributes", `Quick, test_xattrs);
    ("quota trees", `Quick, test_qtrees);
    ("quota accounting and enforcement", `Quick, test_qtree_quotas);
    ("auto consistency points", `Quick, test_auto_cp);
    ("error cases", `Quick, test_errors);
    ("fsinfo torn-write recovery", `Quick, test_fsinfo_torn_write);
    ("volume full", `Quick, test_volume_full);
    ("fsck repairs metadata damage", `Quick, test_fsck_repair);
    ("snapshot schedule (4-hourly + nightly)", `Quick, test_snapshot_schedule);
    ("randomized crash consistency", `Slow, test_crash_consistency_randomized);
  ]

(* The block-map file codec transposes plane by plane over the bitmap
   bytes; the bit-at-a-time original (Oracle.Blockmap) must encode the
   same file blocks from any planes, load any file block into the same
   planes, and the load must round-trip — with map sizes that leave a
   ragged final byte, word and file block. *)
type bmap_op = Mark of int | Free of int | Capture of int | Drop of int

let gen_bmap_case =
  QCheck2.Gen.(
    let* nblocks =
      oneof
        [
          map2 (fun k r -> (8 * k) + r) (int_bound 400) (int_range 1 7);
          oneofl [ 8; 64; 1024; 2048 ];
        ]
    in
    let vbn = int_bound (nblocks - 1) and plane = int_range 1 31 in
    let op =
      frequency
        [
          (6, map (fun v -> Mark v) vbn);
          (2, map (fun v -> Free v) vbn);
          (1, map (fun p -> Capture p) plane);
          (1, map (fun p -> Drop p) plane);
        ]
    in
    let+ ops = list_size (int_range 0 300) op and+ seed = nat and+ lbn = nat in
    (nblocks, ops, seed, lbn))

let prop_blockmap_codec_equals_oracle =
  QCheck2.Test.make ~count:200 ~name:"blockmap: plane transpose = per-bit oracle codec"
    gen_bmap_case (fun (nblocks, ops, seed, lbn) ->
      let module Bitmap = Repro_util.Bitmap in
      let t = Blockmap.create ~nblocks in
      let planes = Array.init Blockmap.nplanes (fun _ -> Bitmap.create nblocks) in
      List.iter
        (function
          | Mark v ->
            Blockmap.mark_allocated t v;
            Bitmap.set planes.(0) v
          | Free v ->
            Blockmap.mark_free t v;
            Bitmap.clear planes.(0) v
          | Capture p ->
            Blockmap.capture_snapshot t ~plane:p;
            planes.(p) <- Bitmap.copy planes.(0)
          | Drop p ->
            Blockmap.clear_plane t p;
            Bitmap.fill planes.(p) false)
        ops;
      let nfile = Blockmap.file_blocks ~nblocks in
      let encodes_agree () =
        List.for_all
          (fun l ->
            String.equal (Blockmap.encode_file_block t l)
              (Bytes.to_string (Oracle.Blockmap.encode_file_block planes ~nblocks l)))
          (List.init (nfile + 1) Fun.id)
      in
      let planes_agree () =
        Array.for_all Fun.id
          (Array.mapi (fun p o -> Bitmap.equal (Blockmap.plane_copy t p) o) planes)
      in
      (* a file block of mostly-empty, plane-0-only and random words *)
      let lbn = lbn mod nfile in
      let rng = Prng.create seed in
      let block = Bytes.make 4096 '\000' in
      for i = 0 to 1023 do
        let w =
          match Prng.int rng 4 with
          | 0 | 1 -> 0
          | 2 -> 1
          | _ -> Prng.int rng (1 lsl 32)
        in
        Bytes.set_int32_le block (4 * i) (Int32.of_int w)
      done;
      let before = encodes_agree () in
      Blockmap.load_file_block t lbn (Bytes.to_string block);
      Oracle.Blockmap.load_file_block planes ~nblocks lbn block;
      let live = Stdlib.min 1024 (nblocks - (lbn * 1024)) in
      Bytes.fill block (4 * live) (4096 - (4 * live)) '\000';
      before && planes_agree () && encodes_agree ()
      && String.equal (Bytes.to_string block) (Blockmap.encode_file_block t lbn))

(* ------------------------- metadata codecs -------------------------- *)

module Dir = Repro_wafl.Dir
module Layout = Repro_wafl.Layout
module Serde = Repro_util.Serde

type 'a outcome = Value of 'a | Corrupt | Invalid

let outcome f =
  match f () with
  | v -> Value v
  | exception Serde.Corrupt _ -> Corrupt
  | exception Invalid_argument _ -> Invalid

(* A directory block and the names in it: valid blocks packed from short
   names that repeat and long ones up to [max_name_len], filled up to
   full, then either kept or damaged — random bytes past the entries, an
   inflated count, the last entry's name running past the block, or a
   block of random bytes. *)
let gen_dir_block =
  QCheck2.Gen.(
    let name =
      oneof
        [
          string_size ~gen:(char_range 'a' 'c') (int_range 1 2);
          map2
            (fun len c -> String.init len (fun i -> Char.chr (97 + ((c + (i * i)) mod 26))))
            (int_range 1 Layout.max_name_len) (int_bound 25);
        ]
    in
    let ino = oneof [ int_bound 100; int_bound 0xffffffff ] in
    let* items = list_size (int_range 0 700) (pair name ino) in
    let block = Bytes.make 4096 '\000' in
    let used = ref 2 and names = ref [] and last = ref None in
    List.iter
      (fun (n, i) ->
        let len = String.length n in
        if !used + 5 + len <= 4096 then begin
          Bytes.set_int32_le block !used (Int32.of_int i);
          Bytes.set_uint8 block (!used + 4) len;
          Bytes.blit_string n 0 block (!used + 5) len;
          used := !used + 5 + len;
          names := n :: !names;
          last := Some n
        end)
      items;
    Bytes.set_uint16_le block 0 (List.length !names);
    let used = !used and names = !names and last = !last in
    let* damage = int_bound 5 in
    let* seed = nat in
    let noise = Bytes.create 4096 in
    Prng.fill (Prng.create seed) noise 0 4096;
    let noise = Bytes.unsafe_to_string noise in
    let* extra = int_range 1 50 in
    let block = Bytes.copy block in
    (match damage with
    | 0 | 1 -> ()
    | 2 -> Bytes.blit_string noise used block used (4096 - used)
    | 3 ->
      Bytes.set_uint16_le block 0
        (Stdlib.min 0xffff (Bytes.get_uint16_le block 0 + extra))
    | 4 -> (
      match last with
      | Some n -> Bytes.set_uint8 block (used - String.length n - 1) 255
      | None -> Bytes.blit_string noise 0 block 0 4096)
    | _ -> Bytes.blit_string noise 0 block 0 4096);
    let* fresh = name in
    return (block, fresh :: List.rev names))

type dir_op = Find of string | Add of string * int | Remove of string | Replace of string * int

let gen_dir_case =
  QCheck2.Gen.(
    let* block, names = gen_dir_block in
    let pick = oneof (List.map return names) in
    let ino = int_bound 0xffffffff in
    let+ ops =
      list_size (int_range 1 6)
        (oneof
           [
             map (fun n -> Find n) pick;
             map2 (fun n i -> Add (n, i)) pick ino;
             map (fun n -> Remove n) pick;
             map2 (fun n i -> Replace (n, i)) pick ino;
           ])
    in
    (block, ops))

(* One in-place edit against its oracle: the same answer, and the edited
   block equal to the oracle's new block — or unchanged when the oracle
   has none. *)
let edit_agrees block edit oracle =
  let mine = Bytes.copy block in
  match (outcome (fun () -> edit mine), outcome oracle) with
  | Value true, Value (Some b) -> Bytes.equal mine b
  | Value false, Value None | Corrupt, Corrupt -> Bytes.equal mine block
  | _ -> false

let prop_dir_codec_equals_oracle =
  QCheck2.Test.make ~count:300 ~name:"dir: in-place codec = list-decoding oracle" gen_dir_case
    (fun (block, ops) ->
      let s = Bytes.to_string block in
      outcome (fun () -> Dir.entries s) = outcome (fun () -> Oracle.Dir.entries block)
      && List.for_all
           (function
             | Find n ->
               let find = outcome (fun () -> Dir.find s n) in
               let sub =
                 outcome (fun () ->
                     let ino = Dir.find_sub s ("//" ^ n ^ "/x") ~pos:2 ~len:(String.length n) in
                     if ino < 0 then None else Some ino)
               in
               find = outcome (fun () -> Oracle.Dir.find block n) && sub = find
             | Add (n, i) ->
               let added = outcome (fun () -> Oracle.Dir.add block n i) in
               outcome (fun () -> Dir.fits s n)
               = (match added with
                 | Value b -> Value (Option.is_some b)
                 | Corrupt -> Corrupt
                 | Invalid -> Invalid)
               && edit_agrees block (fun b -> Dir.add b n i) (fun () -> Oracle.Dir.add block n i)
             | Remove n ->
               edit_agrees block (fun b -> Dir.remove b n) (fun () -> Oracle.Dir.remove block n)
             | Replace (n, i) ->
               edit_agrees block
                 (fun b -> Dir.replace b n i)
                 (fun () -> Oracle.Dir.replace block n i))
           ops)

(* Inodes with every field in its on-disk range, or one field just out of
   it, written into a random slot of a block of random bytes. *)
let gen_inode_case =
  QCheck2.Gen.(
    let u16 = int_bound 0xffff and u32 = int_bound 0xffffffff in
    let* kind = oneofl Inode.[ Free; Regular; Directory; Symlink ] in
    let* nlink = u16 and* perms = u16 and* uid = u32 and* gid = u32 in
    let* size = oneof [ int_bound 1_000_000; map (fun x -> x lsl 20) nat ] in
    let* atime = float and* mtime = float and* ctime = float in
    let* gen = u32 and* qtree = u16 and* dos_flags = u16 and* xattr_vbn = u32 in
    let* direct = array_size (return Layout.ndirect) u32 in
    let* single = u32 and* double = u32 in
    let* bad = int_bound 8 in
    let* slot = int_bound (Layout.inodes_per_block - 1) in
    let+ seed = nat in
    let noise = Bytes.create 4096 in
    Prng.fill (Prng.create seed) noise 0 4096;
    let noise = Bytes.unsafe_to_string noise in
    let i =
      { Inode.kind; nlink; perms; uid; gid; size; atime; mtime; ctime; gen; qtree; dos_flags;
        xattr_vbn; direct; single; double }
    in
    let i =
      match bad with
      | 0 -> { i with nlink = 0x10000 }
      | 1 -> { i with uid = -1 }
      | 2 -> { i with single = 0x1_0000_0000 }
      | _ -> i
    in
    (i, slot * Layout.inode_size, noise))

let prop_inode_slot_equals_oracle =
  QCheck2.Test.make ~count:300 ~name:"inode: in-place slot = writer-built oracle"
    gen_inode_case (fun (i, pos, noise) ->
      let mine = Bytes.of_string noise and want = Bytes.of_string noise in
      match
        (outcome (fun () -> Inode.encode_into mine ~pos i), outcome (fun () -> Oracle.Inode.encode i))
      with
      | Value (), Value slot ->
        Bytes.blit slot 0 want pos Layout.inode_size;
        Bytes.equal mine want
      | Invalid, Invalid -> Bytes.equal mine want
      | _ -> false)

(* ------------------------- block ownership -------------------------- *)

(* Stored blocks are shared, not copied: the volume keeps the string it
   is given and hands it back, the buffer cache and views hold it, and
   snapshots share it with the active file system. So nothing may edit a
   stored block in place. Whole aligned blocks handed to [writev] are
   lent the same way: the file system keeps the caller's string as the
   dirty block, logs it, and stores it. Random operations, with partial
   overwrites and truncations of lent blocks, snapshots, CPs, torn fsinfo
   writes, remounts and crashes replayed from NVRAM between them, must
   leave every earlier snapshot's tree, every block string read earlier
   and every lent string byte-identical. *)
type own_op =
  | O_write of int * int * string
  | O_writev of int * int * int * int
  | O_trunc of int * int
  | O_create of int
  | O_unlink of int
  | O_rename of int * int
  | O_mkdir of int
  | O_xattr of int * string
  | O_snap
  | O_cp
  | O_torn_cp
  | O_remount
  | O_crash
  | O_hold of int
  | O_hold_file of int * int

let gen_own_ops =
  QCheck2.Gen.(
    let file = int_bound 7 in
    list_size (int_range 5 40)
      (frequency
         [
           ( 4,
             map3
               (fun f off s -> O_write (f, off, s))
               file (int_bound 20_000)
               (string_size ~gen:printable (int_range 1 9000)) );
           (1, map2 (fun f n -> O_trunc (f, n)) file (int_bound 20_000));
           ( 3,
             map3
               (fun f (lbn, n) (tail, seed) -> O_writev (f, lbn, n, tail + (seed * 4096)))
               file
               (pair (int_bound 6) (int_range 1 5))
               (pair (int_bound 3000) (int_bound 1000)) );
           (2, map (fun f -> O_create f) file);
           (1, map (fun f -> O_unlink f) file);
           (1, map2 (fun a b -> O_rename (a, b)) file file);
           (1, map (fun d -> O_mkdir d) (int_bound 2));
           (1, map2 (fun f v -> O_xattr (f, v)) file (string_size ~gen:printable (int_range 1 40)));
           (2, return O_snap);
           (1, return O_cp);
           (1, return O_torn_cp);
           (1, return O_remount);
           (1, return O_crash);
           (2, map (fun v -> O_hold v) (int_bound 600));
           (2, map2 (fun f l -> O_hold_file (f, l)) file (int_bound 4));
         ]))

let own_path f = Printf.sprintf "/d%d/f%d" (f mod 3) f

(* Every file of a snapshot with its bytes, in path order. *)
let snapshot_tree fs name =
  let v = Fs.snapshot_view fs name in
  let rec walk ino path acc =
    List.fold_left
      (fun acc (n, child) ->
        let p = path ^ "/" ^ n in
        let a = Fs.View.getattr v child in
        match a.Inode.kind with
        | Inode.Directory -> walk child p ((p, "<dir>") :: acc)
        | _ -> (p, Fs.View.read v child ~offset:0 ~len:a.Inode.size) :: acc)
      acc (Fs.View.readdir v ino)
  in
  List.sort compare (walk (Fs.View.root_ino v) "" [])

let prop_stored_blocks_never_change =
  QCheck2.Test.make ~count:40 ~name:"ownership: snapshots and earlier reads never change"
    gen_own_ops (fun ops ->
      let vol = make_vol ~blocks:4096 () in
      let nvram = Nvram.create () in
      let fs = ref (Fs.mkfs ~nvram vol) in
      List.iter (fun d -> ignore (Fs.mkdir !fs (Printf.sprintf "/d%d" d) ~perms:0o755)) [ 0; 1; 2 ];
      List.iter (fun f -> ignore (Fs.create !fs (own_path f) ~perms:0o644)) [ 0; 1; 2; 3 ];
      let snaps = ref [] and held = ref [] and nsnap = ref 0 in
      let hold s = held := (s, Bytes.to_string (Bytes.of_string s)) :: !held in
      let apply = function
        | O_write (f, off, data) -> Fs.write !fs (own_path f) ~offset:off data
        | O_writev (f, lbn, n, tail_seed) -> (
          (* [n] whole blocks, lent, then a partial piece copied; then,
             in the same CP, an edit inside a lent block *)
          let rng = Prng.create tail_seed in
          let piece len =
            let b = Bytes.create len in
            Prng.fill rng b 0 len;
            Bytes.unsafe_to_string b
          in
          let blocks = List.init n (fun _ -> piece 4096) in
          List.iter hold blocks;
          let path = own_path f in
          Fs.writev !fs path ~offset:(lbn * 4096) (blocks @ [ piece (tail_seed mod 4096) ]);
          let inside = ((lbn + (tail_seed mod n)) * 4096) + 1 + (tail_seed mod 4000) in
          match tail_seed mod 3 with
          | 0 -> Fs.truncate !fs path ~size:inside
          | 1 -> Fs.write !fs path ~offset:inside (piece 50)
          | _ -> ())
        | O_trunc (f, size) -> Fs.truncate !fs (own_path f) ~size
        | O_create f -> ignore (Fs.create !fs (own_path f) ~perms:0o644)
        | O_unlink f -> Fs.unlink !fs (own_path f)
        | O_rename (a, b) -> Fs.rename !fs (own_path a) (own_path b)
        | O_mkdir d -> ignore (Fs.mkdir !fs (Printf.sprintf "/d%d/sub" d) ~perms:0o755)
        | O_xattr (f, v) -> Fs.set_xattr !fs (own_path f) ~name:"user.k" ~value:v
        | O_snap ->
          let name = Printf.sprintf "s%d" !nsnap in
          incr nsnap;
          Fs.snapshot_create !fs name;
          snaps := (name, snapshot_tree !fs name) :: !snaps
        | O_cp -> Fs.cp !fs
        | O_torn_cp ->
          let plane =
            Repro_fault.Fault.plan
              [ Repro_fault.Fault.Torn_fsinfo_write { device = Volume.label vol } ]
          in
          Repro_fault.Fault.with_armed plane (fun () -> Fs.cp !fs)
        | O_remount ->
          Fs.cp !fs;
          Fs.crash !fs;
          fs := Fs.mount ~nvram vol
        | O_crash ->
          (* no CP: the mount replays the NVRAM log, lent pieces and all *)
          Fs.crash !fs;
          fs := Fs.mount ~nvram vol
        | O_hold vbn ->
          (* the fsinfo pair too: a torn write must tear a copy *)
          hold (Volume.read vol (vbn mod 2));
          hold (Volume.read vol (vbn mod Volume.size_blocks vol))
        | O_hold_file (f, lbn) -> (
          let v = Fs.active_view !fs in
          match Fs.View.lookup v (own_path f) with
          | Some ino -> Option.iter hold (Fs.View.file_block v ino lbn)
          | None -> ())
      in
      List.for_all
        (fun op ->
          (try apply op with Fs.Error _ -> ());
          List.for_all (fun (s, copy) -> String.equal s copy) !held
          && List.for_all (fun (name, tree) -> snapshot_tree !fs name = tree) !snaps)
        ops
      && Fs.fsck !fs = Ok ())

(* ---------------------------- path walks ----------------------------- *)

(* The in-place walk against the split-list walk it replaced. Two file
   systems get the same tree, a CP and a remount (so the walks read the
   volume through a cold buffer cache); then each path is walked on one
   by the file system and on the other by [Oracle.Namei]. The two must
   agree on the inode or the error message, and leave the same CPU
   charge and the same volume traffic behind. *)
type tree_op = T_dir of int * int | T_file of int * int | T_fill of int * int

type path_op =
  | P_exact of int
  | P_double of int
  | P_trailing of int
  | P_empty
  | P_relative of int
  | P_through of int
  | P_missing of int
  | P_long of int

(* Short names collide often; 255-byte ones fill directory blocks. *)
let tree_name i =
  if i < 6 then String.make 1 (Char.chr (97 + i))
  else String.make 254 'n' ^ string_of_int (i mod 10)

let gen_namei_case =
  QCheck2.Gen.(
    let node = int_bound 40 and name = int_bound 12 in
    pair
      (list_size (int_range 1 30)
         (frequency
            [
              (3, map2 (fun p n -> T_dir (p, n)) node name);
              (4, map2 (fun p n -> T_file (p, n)) node name);
              (1, map2 (fun p k -> T_fill (p, k)) node (int_range 1 40));
            ]))
      (list_size (int_range 1 40)
         (let at = int_bound 1000 in
          frequency
            [
              (4, map (fun i -> P_exact i) at);
              (2, map (fun i -> P_double i) at);
              (1, map (fun i -> P_trailing i) at);
              (1, return P_empty);
              (1, map (fun i -> P_relative i) at);
              (2, map (fun i -> P_through i) at);
              (2, map (fun i -> P_missing i) at);
              (1, map (fun i -> P_long i) (int_bound 12));
            ])))

let prop_namei_equals_oracle =
  QCheck2.Test.make ~count:60 ~name:"namei: in-place walk = split-list oracle" gen_namei_case
    (fun (tree, probes) ->
      let build () =
        let cpu = Repro_sim.Resource.create "cpu" in
        let config = { (Fs.default_config ()) with Fs.cpu = Some cpu } in
        let vol = make_vol ~blocks:2048 () in
        let fs = Fs.mkfs ~config vol in
        let dirs = ref [ "/" ] and paths = ref [ "/" ] in
        let under parent n = (if parent = "/" then "" else parent) ^ "/" ^ tree_name n in
        let pick i = List.nth !dirs (i mod List.length !dirs) in
        let add path l = l := !l @ [ path ] in
        let attempt f = try f () with Fs.Error _ -> () in
        List.iter
          (function
            | T_dir (p, n) ->
              let path = under (pick p) n in
              attempt (fun () ->
                  ignore (Fs.mkdir fs path ~perms:0o755);
                  add path dirs;
                  add path paths)
            | T_file (p, n) ->
              let path = under (pick p) n in
              attempt (fun () ->
                  ignore (Fs.create fs path ~perms:0o644);
                  add path paths)
            | T_fill (p, k) ->
              let dir = pick p in
              for i = 1 to k do
                let name = String.make 250 'f' ^ Printf.sprintf "%05d" i in
                let path = (if dir = "/" then "" else dir) ^ "/" ^ name in
                attempt (fun () ->
                    ignore (Fs.create fs path ~perms:0o644);
                    add path paths)
              done)
          tree;
        Fs.cp fs;
        Fs.crash fs;
        let fs = Fs.mount ~config vol in
        (fs, vol, cpu, Array.of_list !paths)
      in
      let fs, vol, cpu, paths = build () and ofs, ovol, ocpu, _ = build () in
      let path_of = function
        | P_exact i -> paths.(i mod Array.length paths)
        | P_double i ->
          String.concat "//" (String.split_on_char '/' paths.(i mod Array.length paths))
        | P_trailing i -> paths.(i mod Array.length paths) ^ "/"
        | P_empty -> ""
        | P_relative i ->
          let p = paths.(i mod Array.length paths) in
          String.sub p 1 (String.length p - 1)
        | P_through i ->
          let p = paths.(i mod Array.length paths) in
          (if p = "/" then "" else p) ^ "/x/y"
        | P_missing i ->
          let p = paths.(i mod Array.length paths) in
          (if p = "/" then "" else p) ^ "/missing"
        | P_long n -> "/" ^ tree_name n ^ if n mod 2 = 0 then "x" else ""
      in
      let result f = match f () with v -> Ok v | exception Fs.Error m -> Error m in
      let traffic v c =
        (Volume.bytes_moved v, Volume.seeks v, Int64.bits_of_float (Repro_sim.Resource.busy c))
      in
      List.for_all
        (fun probe ->
          let path = path_of probe in
          let mine = result (fun () -> Fs.getattr fs path) and lookup = Fs.lookup fs path in
          let theirs = result (fun () -> Fs.getattr_ino ofs (Oracle.Namei.namei ofs path)) in
          let olookup = try Some (Oracle.Namei.namei ofs path) with Fs.Error _ -> None in
          mine = theirs && lookup = olookup && traffic vol cpu = traffic ovol ocpu)
        probes)

(* A [writev] of whole aligned blocks keeps the caller's strings: it
   allocates nothing block-sized, where a copy would take a block per
   piece. *)
let test_writev_lends_whole_blocks () =
  let fs, _ = make_fs () in
  ignore (Fs.create fs "/f" ~perms:0o644);
  let pieces = List.init 16 (fun i -> String.make 4096 (Char.chr (65 + i))) in
  Fs.writev fs "/f" ~offset:0 pieces;
  (* windows as in the block-map codec test below *)
  let window n =
    Gc.full_major ();
    let before = Gc.allocated_bytes () in
    for _ = 1 to n do
      Fs.writev fs "/f" ~offset:0 pieces
    done;
    Gc.minor ();
    Gc.allocated_bytes () -. before
  in
  let per_call = (window 50 -. window 0) /. 50.0 in
  checkb (Printf.sprintf "%.0f bytes per 16-block writev" per_call) true (per_call < 4096.0);
  checks "content" (String.concat "" pieces) (Fs.read fs "/f" ~offset:0 ~len:(16 * 4096))

let test_blockmap_codec_allocates_only_the_block () =
  let t = Blockmap.create ~nblocks:3000 in
  for v = 0 to 2999 do
    if v mod 3 <> 0 then Blockmap.mark_allocated t v
  done;
  Blockmap.capture_snapshot t ~plane:5;
  let block = Blockmap.encode_file_block t 1 in
  (* The runtime adds minor words to its count only at a minor
     collection, so each window opens on an empty minor heap (otherwise a
     collection inside it bills the earlier tests' 0.4-1 MB to the
     codec) and closes with one (so the codec's own minor words count).
     An empty window measures what the measuring itself allocates. *)
  let window n =
    Gc.full_major ();
    let before = Gc.allocated_bytes () in
    for _ = 1 to n do
      Blockmap.load_file_block t 1 (Blockmap.encode_file_block t 1)
    done;
    Gc.minor ();
    Gc.allocated_bytes () -. before
  in
  let per_call = (window 100 -. window 0) /. 100.0 in
  (* the block is 4096 bytes, a padding word and a header word *)
  checkb (Printf.sprintf "%.0f bytes per encode + load" per_call) true (per_call <= 4096.0 +. 16.0);
  checkb "round trip" true (String.equal block (Blockmap.encode_file_block t 1))

(* ------------------------------------------------------------------ *)
(* NVRAM replay: every logged op replays to its live result            *)

(* A sequence of calls drawing every [Nvram.op] constructor over a small
   namespace, so many calls meet the names earlier ones made (and some
   fail, which logs nothing). [Set_qtree] is logged only by
   [Fs.qtree_create], so that is the call it stands for. *)
type step = Call of Nvram.op | Cp

(* Names each kind of call mostly draws from; one draw in six takes any
   name, so calls also meet the wrong kind of file. *)
let replay_dirs = [| "/a"; "/b"; "/a/c"; "/q"; "/r" |]
let replay_files = [| "/f"; "/g"; "/a/f"; "/a/g"; "/a/c/h"; "/b/f"; "/q/f"; "/r/f" |]
let replay_fresh = [| "/n"; "/a/n"; "/a/c/n"; "/q/n" |]
let replay_paths = Array.concat [ replay_dirs; replay_files; replay_fresh; [| "/s"; "/a/s" |] ]

let show_step = function
  | Cp -> "cp"
  | Call op -> (
    let open Printf in
    match op with
    | Nvram.Create_file { path; perms } -> sprintf "create %s %o" path perms
    | Mkdir { path; perms } -> sprintf "mkdir %s %o" path perms
    | Write { path; offset; data } ->
      sprintf "write %s @%d [%s]" path offset
        (String.concat ";" (List.map (fun p -> string_of_int (String.length p)) data))
    | Truncate { path; size } -> sprintf "truncate %s %d" path size
    | Unlink { path } -> sprintf "unlink %s" path
    | Rmdir { path } -> sprintf "rmdir %s" path
    | Rename { src; dst } -> sprintf "rename %s %s" src dst
    | Link { existing; path } -> sprintf "link %s %s" existing path
    | Symlink { target; path } -> sprintf "symlink %S %s" target path
    | Set_xattr { path; name; value } ->
      sprintf "set_xattr %s %s (%d bytes)" path name (String.length value)
    | Remove_xattr { path; name } -> sprintf "remove_xattr %s %s" path name
    | Set_dos_flags { path; flags } -> sprintf "dos_flags %s %x" path flags
    | Set_perms { path; perms } -> sprintf "perms %s %o" path perms
    | Set_owner { path; uid; gid } -> sprintf "owner %s %d:%d" path uid gid
    | Set_qtree { path; _ } -> sprintf "qtree_create %s" path
    | Set_qtree_limit { path; limit } ->
      sprintf "qtree_limit %s %s" path
        (match limit with Some l -> string_of_int l | None -> "none"))

let gen_step =
  let open QCheck2.Gen in
  let from names = frequency [ (5, oneofa names); (1, oneofa replay_paths) ] in
  let dir = from replay_dirs and file = from replay_files in
  let fresh = frequency [ (2, from replay_fresh); (1, file) ] in
  let bytes n seed = String.init n (fun i -> Char.chr ((seed + (i * 7)) land 0xff)) in
  (* whole aligned blocks are lent, other pieces copied *)
  let piece = map2 bytes (oneofl [ 0; 1; 100; 4096; 5000 ]) nat in
  let xattr_name = oneofl [ "dos"; "acl"; "x" ] in
  let call =
    frequency
      [
        (2, map2 (fun path perms -> Nvram.Create_file { path; perms }) file (int_bound 0o777));
        (1, map2 (fun path perms -> Nvram.Mkdir { path; perms }) dir (int_bound 0o777));
        ( 4,
          map3
            (fun path offset data -> Nvram.Write { path; offset; data })
            file
            (oneofl [ 0; 10; 4096; 4000; 20_000 ])
            (list_size (int_range 1 3) piece) );
        ( 1,
          map2
            (fun path size -> Nvram.Truncate { path; size })
            file
            (oneofl [ 0; 10; 4096; 5000; 30_000 ]) );
        (1, map (fun path -> Nvram.Unlink { path }) (oneofl [ "/f"; "/g"; "/a/f"; "/s" ]));
        (1, map (fun path -> Nvram.Rmdir { path }) dir);
        ( 1,
          oneof
            [
              map2 (fun src dst -> Nvram.Rename { src; dst }) (from replay_fresh) fresh;
              map2 (fun src dst -> Nvram.Rename { src; dst }) file fresh;
              map2 (fun src dst -> Nvram.Rename { src; dst }) dir dir;
            ] );
        (1, map2 (fun existing path -> Nvram.Link { existing; path }) file fresh);
        ( 1,
          map2
            (fun target path -> Nvram.Symlink { target; path })
            (oneofl [ ""; "/f"; "../a/c"; String.make 200 't' ])
            (from [| "/s"; "/a/s" |]) );
        ( 2,
          map3
            (fun path name (n, seed) -> Nvram.Set_xattr { path; name; value = bytes n seed })
            file xattr_name
            (pair (oneofl [ 0; 10; 1000; 2500; 5000 ]) nat) );
        (1, map2 (fun path name -> Nvram.Remove_xattr { path; name }) file xattr_name);
        (1, map2 (fun path flags -> Nvram.Set_dos_flags { path; flags }) file (int_bound 0xff));
        (1, map2 (fun path perms -> Nvram.Set_perms { path; perms }) file (int_bound 0o777));
        ( 1,
          map3
            (fun path uid gid -> Nvram.Set_owner { path; uid; gid })
            file (int_bound 1000) (int_bound 1000) );
        (1, map (fun path -> Nvram.Set_qtree { path; qtree = 0 }) dir);
        ( 1,
          map2
            (fun path limit -> Nvram.Set_qtree_limit { path; limit })
            (from [| "/q"; "/q/f"; "/r"; "/r/f" |])
            (oneofl [ None; Some 0; Some 6000; Some 100_000; Some (-1) ]) );
      ]
  in
  frequency [ (30, map (fun op -> Call op) call); (1, pure Cp) ]

(* Every sequence starts by making some of the names, a quota tree among
   them, so the drawn calls find files to work on. *)
let replay_prologue =
  List.map
    (fun op -> Call op)
    [
      Nvram.Mkdir { path = "/a"; perms = 0o755 };
      Mkdir { path = "/a/c"; perms = 0o755 };
      Set_qtree { path = "/q"; qtree = 0 };
      Create_file { path = "/f"; perms = 0o644 };
      Create_file { path = "/a/f"; perms = 0o644 };
      Create_file { path = "/q/f"; perms = 0o644 };
      Write { path = "/q/f"; offset = 0; data = [ String.make 5000 'q' ] };
    ]

(* Run one step, and what it answered: the inode or qtree id a call
   returns, or the error it raised. *)
let run_step fs step =
  try
    match step with
    | Cp ->
      Fs.cp fs;
      "ok"
    | Call op -> (
      match op with
      | Nvram.Create_file { path; perms } -> string_of_int (Fs.create fs path ~perms)
      | Mkdir { path; perms } -> string_of_int (Fs.mkdir fs path ~perms)
      | Write { path; offset; data } ->
        Fs.writev fs path ~offset data;
        "ok"
      | Truncate { path; size } ->
        Fs.truncate fs path ~size;
        "ok"
      | Unlink { path } ->
        Fs.unlink fs path;
        "ok"
      | Rmdir { path } ->
        Fs.rmdir fs path;
        "ok"
      | Rename { src; dst } ->
        Fs.rename fs src dst;
        "ok"
      | Link { existing; path } ->
        Fs.link fs existing path;
        "ok"
      | Symlink { target; path } ->
        Fs.symlink fs ~target path;
        "ok"
      | Set_xattr { path; name; value } ->
        Fs.set_xattr fs path ~name ~value;
        "ok"
      | Remove_xattr { path; name } ->
        Fs.remove_xattr fs path ~name;
        "ok"
      | Set_dos_flags { path; flags } ->
        Fs.set_dos_flags fs path ~flags;
        "ok"
      | Set_perms { path; perms } ->
        Fs.set_perms fs path ~perms;
        "ok"
      | Set_owner { path; uid; gid } ->
        Fs.set_owner fs path ~uid ~gid;
        "ok"
      | Set_qtree { path; _ } -> string_of_int (Fs.qtree_create fs path ~perms:0o755)
      | Set_qtree_limit { path; limit } ->
        Fs.set_qtree_limit fs path ~limit;
        "ok")
  with Fs.Error e -> "error: " ^ e

(* What Compare.trees leaves out: each path's qtree, each qtree's usage,
   and the limits table. *)
let qtree_state fs =
  let qtrees =
    Array.to_list replay_paths
    |> List.map (fun p ->
           match Fs.qtree_of fs p with q -> string_of_int q | exception Fs.Error _ -> "-")
  in
  let usage = List.init 6 (fun q -> string_of_int (Fs.qtree_usage fs ~qtree:q)) in
  let limits =
    List.sort compare (Fs.qtree_limit_list fs)
    |> List.map (fun (q, l) -> Printf.sprintf "%d=%d" q l)
  in
  String.concat " " (qtrees @ [ "|" ] @ usage @ [ "|" ] @ limits)

let same_state ~what ref_fs vic_fs =
  (match Repro_workload.Compare.trees ~src:(ref_fs, "/") ~dst:(vic_fs, "/") () with
  | Ok () -> ()
  | Error d -> QCheck2.Test.fail_reportf "%s: %s" what (String.concat "; " d));
  let a = qtree_state ref_fs and b = qtree_state vic_fs in
  if a <> b then QCheck2.Test.fail_reportf "%s: qtrees %s vs %s" what a b;
  match Fs.fsck vic_fs with
  | Ok () -> ()
  | Error p -> QCheck2.Test.fail_reportf "%s: fsck: %s" what (String.concat "; " p)

(* The victim runs the steps up to [crash], loses power, and mounts with
   its NVRAM; it must then equal a reference that never crashed (times
   aside, which Compare.trees leaves out), and go on answering every
   later call as the reference does. An auto-CP every few ops makes some
   crashes land right after one. *)
let prop_replay_equals_live =
  QCheck2.Test.make ~count:300 ~name:"replay: every logged op replays to its live result"
    ~print:(fun (steps, crash, auto) ->
      Printf.sprintf "auto_cp_ops %d, crash after %d:\n%s" auto crash
        (String.concat "\n" (List.map show_step steps)))
    QCheck2.Gen.(
      let* steps = map (( @ ) replay_prologue) (list_size (int_range 1 60) gen_step) in
      let+ crash = int_bound (List.length steps) and+ auto = oneofl [ 0; 20 ] in
      (steps, crash, auto))
    (fun (steps, crash, auto) ->
      let config () = { (Fs.default_config ()) with Fs.auto_cp_ops = auto } in
      let ref_fs = Fs.mkfs ~config:(config ()) (make_vol ~blocks:2048 ()) in
      let vol = make_vol ~blocks:2048 () in
      let nvram = Nvram.create () in
      let vic = ref (Fs.mkfs ~config:(config ()) ~nvram vol) in
      List.iteri
        (fun i step ->
          if i = crash then begin
            Fs.crash !vic;
            vic := Fs.mount ~config:(config ()) ~nvram vol;
            same_state ~what:"after replay" ref_fs !vic
          end;
          let a = run_step ref_fs step and b = run_step !vic step in
          if a <> b then
            QCheck2.Test.fail_reportf "step %d (%s): %s vs %s" i (show_step step) a b)
        steps;
      same_state ~what:"at the end" ref_fs !vic;
      true)

(* After a live call, the log's newest entry is exactly the op that call
   describes. Each case sets up what its call needs first. *)
let last_entry_cases =
  let setup fs =
    ignore (Fs.mkdir fs "/d" ~perms:0o755);
    ignore (Fs.create fs "/f" ~perms:0o644);
    Fs.write fs "/f" ~offset:0 "data";
    Fs.set_xattr fs "/f" ~name:"acl" ~value:"v";
    ignore (Fs.qtree_create fs "/q" ~perms:0o755)
  in
  let case name op call =
    Alcotest.test_case ("logs " ^ name) `Quick (fun () ->
        let nvram = Nvram.create () in
        let fs = Fs.mkfs ~nvram (make_vol ()) in
        setup fs;
        call fs;
        match List.rev (Nvram.entries_tagged nvram ~tag:(Fs.generation fs)) with
        | last :: _ ->
          checks "last entry" (show_step (Call op)) (show_step (Call last));
          checkb "equal op" true (last = op)
        | [] -> Alcotest.fail "nothing logged")
  in
  let pieces = [ String.make 4096 'a'; "tail" ] in
  [
    case "Create_file" (Nvram.Create_file { path = "/n"; perms = 0o600 }) (fun fs ->
        ignore (Fs.create fs "/n" ~perms:0o600));
    case "Mkdir" (Nvram.Mkdir { path = "/m"; perms = 0o700 }) (fun fs ->
        ignore (Fs.mkdir fs "/m" ~perms:0o700));
    case "Write" (Nvram.Write { path = "/f"; offset = 4096; data = pieces }) (fun fs ->
        Fs.writev fs "/f" ~offset:4096 pieces);
    case "Truncate" (Nvram.Truncate { path = "/f"; size = 2 }) (fun fs ->
        Fs.truncate fs "/f" ~size:2);
    case "Unlink" (Nvram.Unlink { path = "/f" }) (fun fs -> Fs.unlink fs "/f");
    case "Rmdir" (Nvram.Rmdir { path = "/d" }) (fun fs -> Fs.rmdir fs "/d");
    case "Rename" (Nvram.Rename { src = "/f"; dst = "/d/f" }) (fun fs ->
        Fs.rename fs "/f" "/d/f");
    case "Link" (Nvram.Link { existing = "/f"; path = "/l" }) (fun fs ->
        Fs.link fs "/f" "/l");
    case "Symlink" (Nvram.Symlink { target = "f"; path = "/s" }) (fun fs ->
        Fs.symlink fs ~target:"f" "/s");
    case "Set_xattr" (Nvram.Set_xattr { path = "/f"; name = "dos"; value = "F~1" })
      (fun fs -> Fs.set_xattr fs "/f" ~name:"dos" ~value:"F~1");
    case "Remove_xattr" (Nvram.Remove_xattr { path = "/f"; name = "acl" }) (fun fs ->
        Fs.remove_xattr fs "/f" ~name:"acl");
    case "Set_dos_flags" (Nvram.Set_dos_flags { path = "/f"; flags = 0x21 }) (fun fs ->
        Fs.set_dos_flags fs "/f" ~flags:0x21);
    case "Set_perms" (Nvram.Set_perms { path = "/f"; perms = 0o400 }) (fun fs ->
        Fs.set_perms fs "/f" ~perms:0o400);
    case "Set_owner" (Nvram.Set_owner { path = "/f"; uid = 7; gid = 8 }) (fun fs ->
        Fs.set_owner fs "/f" ~uid:7 ~gid:8);
    case "Set_qtree" (Nvram.Set_qtree { path = "/r"; qtree = 2 }) (fun fs ->
        checki "second qtree id" 2 (Fs.qtree_create fs "/r" ~perms:0o755));
    case "Set_qtree_limit" (Nvram.Set_qtree_limit { path = "/q"; limit = Some 9 })
      (fun fs -> Fs.set_qtree_limit fs "/q" ~limit:(Some 9));
  ]

(* An attribute block that would outgrow its 4 KB block is refused at the
   call, before anything is charged, changed or logged; the volume then
   commits and, after a crash, mounts with its log. *)
let test_oversized_xattr_refused () =
  let nvram = Nvram.create () in
  let vol = make_vol () in
  let fs = Fs.mkfs ~nvram vol in
  ignore (Fs.create fs "/f" ~perms:0o644);
  Fs.set_xattr fs "/f" ~name:"acl" ~value:"v";
  let logged () = List.length (Nvram.entries_tagged nvram ~tag:(Fs.generation fs)) in
  let before = logged () in
  (match Fs.set_xattr fs "/f" ~name:"big" ~value:(String.make 5000 'x') with
  | () -> Alcotest.fail "a 5000-byte value was accepted"
  | exception Fs.Error _ -> ());
  checki "nothing logged" before (logged ());
  Alcotest.(check (list (pair string string))) "attributes kept" [ ("acl", "v") ]
    (Fs.xattrs fs "/f");
  (* the largest value that fits: 2 + (8 + 3 + 1) + (8 + 3 + n) = 4096 *)
  let fits = 4096 - 2 - 12 - 11 in
  Fs.set_xattr fs "/f" ~name:"max" ~value:(String.make fits 'y');
  (match Fs.set_xattr fs "/f" ~name:"max" ~value:(String.make (fits + 1) 'y') with
  | () -> Alcotest.fail "one byte over a block was accepted"
  | exception Fs.Error _ -> ());
  checki "encoded size" 4096
    (String.length (Fs.encode_xattrs (Fs.xattrs fs "/f")));
  Fs.crash fs;
  let fs = Fs.mount ~nvram vol in
  checki "replayed value" fits
    (String.length (Option.get (Fs.get_xattr fs "/f" ~name:"max")));
  Fs.cp fs;
  fsck_clean fs

(* Defects the replay property found, one case each. *)
let test_qtree_ids_survive_replay () =
  let nvram = Nvram.create () in
  let vol = make_vol () in
  let fs = Fs.mkfs ~nvram vol in
  checki "first id" 1 (Fs.qtree_create fs "/q1" ~perms:0o755);
  Fs.crash fs;
  let fs = Fs.mount ~nvram vol in
  checki "replayed id" 1 (Fs.qtree_of fs "/q1");
  checki "next id" 2 (Fs.qtree_create fs "/q2" ~perms:0o755)

let test_symlink_whole_across_auto_cp () =
  let config = { (Fs.default_config ()) with Fs.auto_cp_ops = 3 } in
  let nvram = Nvram.create () in
  let vol = make_vol () in
  let fs = Fs.mkfs ~config ~nvram vol in
  ignore (Fs.create fs "/a" ~perms:0o644);
  ignore (Fs.create fs "/b" ~perms:0o644);
  (* the third mutation takes an auto-CP: it must hold the whole link *)
  Fs.symlink fs ~target:"/a" "/s";
  Fs.crash fs;
  let fs = Fs.mount ~config ~nvram vol in
  checks "target" "/a" (Fs.readlink fs "/s");
  fsck_clean fs

let test_rename_below_itself_refused () =
  let fs, _ = make_fs () in
  ignore (Fs.mkdir fs "/a" ~perms:0o755);
  ignore (Fs.mkdir fs "/a/c" ~perms:0o755);
  List.iter
    (fun dst ->
      match Fs.rename fs "/a" dst with
      | () -> Alcotest.failf "rename /a %s accepted" dst
      | exception Fs.Error _ -> ())
    [ "/a/x"; "/a/c/x"; "/a/c/../x" ];
  Fs.rename fs "/a/c" "/c";
  Fs.rename fs "/a" "/c/a";
  checkb "moved" true (Fs.lookup fs "/c/a" <> None);
  fsck_clean fs

let test_file_is_no_parent () =
  let fs, _ = make_fs () in
  ignore (Fs.create fs "/f" ~perms:0o644);
  ignore (Fs.create fs "/g" ~perms:0o644);
  Fs.write fs "/f" ~offset:0 (String.make 100 'z');
  List.iter
    (fun (what, call) ->
      match call () with
      | () -> Alcotest.failf "%s accepted" what
      | exception Fs.Error _ -> ())
    [
      ("unlink /f/x", fun () -> Fs.unlink fs "/f/x");
      ("rmdir /f/x", fun () -> Fs.rmdir fs "/f/x");
      ("link /g /f/x", fun () -> Fs.link fs "/g" "/f/x");
      ("rename /g /f/x", fun () -> Fs.rename fs "/g" "/f/x");
    ];
  checks "file kept" (String.make 100 'z') (Fs.read fs "/f" ~offset:0 ~len:200);
  fsck_clean fs

(* ----------------------------- free count ----------------------------- *)

(* [Fs.free_blocks] counts the union of the 32 planes a word at a time;
   the per-vbn loop it replaced (Oracle.Blockmap.free_blocks) must agree
   after every call of a sequence that writes, frees, checkpoints, and
   takes and drops snapshots up to a full snapshot table. *)
type fc_step =
  | Fc_create of int
  | Fc_write of int * int * int  (** file, offset, length *)
  | Fc_unlink of int
  | Fc_cp
  | Fc_snap  (** a fresh name, so only a full table refuses it *)
  | Fc_snap_delete of int  (** the [n mod count]-th snapshot held *)

let show_fc = function
  | Fc_create f -> Printf.sprintf "create /f%d" f
  | Fc_write (f, off, len) -> Printf.sprintf "write /f%d @%d %d" f off len
  | Fc_unlink f -> Printf.sprintf "unlink /f%d" f
  | Fc_cp -> "cp"
  | Fc_snap -> "snapshot"
  | Fc_snap_delete n -> Printf.sprintf "snapshot_delete #%d" n

let gen_fc_step =
  let open QCheck2.Gen in
  let file = int_bound 5 in
  frequency
    [
      (2, map (fun f -> Fc_create f) file);
      ( 4,
        map3
          (fun f off len -> Fc_write (f, off, len))
          file
          (oneofl [ 0; 100; 4096; 12_288 ])
          (oneofl [ 1; 4096; 10_000 ]) );
      (2, map (fun f -> Fc_unlink f) file);
      (1, pure Fc_cp);
      (4, pure Fc_snap);
      (1, map (fun n -> Fc_snap_delete n) nat);
    ]

let run_fc fs ~step_no step =
  let file f = Printf.sprintf "/f%d" f in
  try
    match step with
    | Fc_create f -> ignore (Fs.create fs (file f) ~perms:0o644)
    | Fc_write (f, offset, len) -> Fs.write fs (file f) ~offset (String.make len 'w')
    | Fc_unlink f -> Fs.unlink fs (file f)
    | Fc_cp -> Fs.cp fs
    | Fc_snap -> Fs.snapshot_create fs (Printf.sprintf "s%d" step_no)
    | Fc_snap_delete n -> (
      match Fs.snapshots fs with
      | [] -> ()
      | held -> Fs.snapshot_delete fs (List.nth held (n mod List.length held)).Fs.name)
  with Fs.Error _ -> ()

let oracle_free fs =
  Oracle.Blockmap.free_blocks (Fs.blockmap fs) ~nblocks:(Fs.size_blocks fs)

let prop_free_count_equals_oracle =
  QCheck2.Test.make ~count:150 ~name:"free count: plane union = per-vbn oracle"
    ~print:(fun steps -> String.concat "\n" (List.map show_fc steps))
    QCheck2.Gen.(list_size (int_range 1 100) gen_fc_step)
    (fun steps ->
      let fs, _ = make_fs ~blocks:1024 () in
      let agree what =
        let got = Fs.free_blocks fs and want = oracle_free fs in
        if got <> want then QCheck2.Test.fail_reportf "%s: free %d, oracle %d" what got want
      in
      agree "after mkfs";
      List.iteri
        (fun step_no step ->
          run_fc fs ~step_no step;
          agree (show_fc step))
        steps;
      true)

(* Any word in any plane, over map sizes that end inside a byte and
   inside a 64-bit word: a count that skips a plane or a tail differs. *)
let prop_free_count_any_plane =
  QCheck2.Test.make ~count:200 ~name:"free count: any plane word = per-vbn oracle"
    QCheck2.Gen.(pair (int_range 1 2600) nat)
    (fun (nblocks, seed) ->
      let st = Random.State.make [| seed |] in
      let t = Blockmap.create ~nblocks in
      let word () =
        match Random.State.int st 4 with
        | 0 | 1 -> 0
        | 2 -> 1 lsl Random.State.int st Blockmap.nplanes
        | _ -> (Random.State.bits st lsl 2) lxor Random.State.bits st land 0xffffffff
      in
      for lbn = 0 to Blockmap.file_blocks ~nblocks - 1 do
        let b = Bytes.create 4096 in
        for i = 0 to 1023 do
          Bytes.set_int32_le b (i * 4) (Int32.of_int (word ()))
        done;
        Blockmap.load_file_block t lbn (Bytes.to_string b)
      done;
      Blockmap.free_count t = Oracle.Blockmap.free_blocks t ~nblocks)

(* The two block gauges are observability-only: a backup job records
   them, with the oracle's values, only while a plane is armed and on. *)
let test_backup_gauges_armed_only () =
  let module Engine = Repro_backup.Engine in
  let module Obs = Repro_obs.Obs in
  let fs, _ = make_fs ~blocks:2048 () in
  ignore
    (Repro_workload.Generator.populate ~fs ~root:"/data" ~total_bytes:200_000 ());
  (* a snapshot holding blocks the live file system then frees *)
  ignore (Fs.create fs "/gone" ~perms:0o644);
  Fs.write fs "/gone" ~offset:0 (String.make 50_000 'g');
  Fs.snapshot_create fs "keep";
  Fs.unlink fs "/gone";
  let lib = Repro_tape.Library.create ~slots:4 ~label:"t" () in
  let eng = Engine.create ~fs ~libraries:[ lib ] () in
  let job () =
    ignore
      (Engine.backup_job eng
         (Engine.Job.make ~strategy:Repro_backup.Strategy.Physical ()))
  in
  let off = Obs.create ~enabled:false () in
  Obs.with_armed off job;
  List.iter
    (fun g -> checkb (g ^ " unset while off") true (Obs.gauge_value off g = None))
    [ "fs.used_blocks"; "fs.free_blocks"; "scheduler.drive0.busy_s" ];
  let on = Obs.create () in
  Obs.with_armed on job;
  let gauge g =
    match Obs.gauge_value on g with Some v -> Float.to_int v | None -> Alcotest.failf "%s unset" g
  in
  checki "fs.free_blocks" (oracle_free fs) (gauge "fs.free_blocks");
  checki "fs.used_blocks" (Blockmap.active_used (Fs.blockmap fs)) (gauge "fs.used_blocks");
  checkb "snapshot holds freed blocks" true
    (gauge "fs.free_blocks" < Fs.size_blocks fs - gauge "fs.used_blocks");
  checkb "drive gauge set" true (Obs.gauge_value on "scheduler.drive0.busy_s" <> None)

let () =
  Alcotest.run "wafl"
    [
      ("fs", suite);
      ( "properties",
        [
          QCheck_alcotest.to_alcotest ~long:false prop_file_model;
          QCheck_alcotest.to_alcotest ~long:false prop_blockmap_codec_equals_oracle;
          QCheck_alcotest.to_alcotest ~long:false prop_dir_codec_equals_oracle;
          QCheck_alcotest.to_alcotest ~long:false prop_inode_slot_equals_oracle;
          QCheck_alcotest.to_alcotest ~long:false prop_namei_equals_oracle;
        ] );
      ( "ownership",
        [
          QCheck_alcotest.to_alcotest ~long:false prop_stored_blocks_never_change;
          Alcotest.test_case "writev lends whole blocks" `Quick test_writev_lends_whole_blocks;
        ] );
      ( "blockmap",
        [
          Alcotest.test_case "codec allocates only the block" `Quick
            test_blockmap_codec_allocates_only_the_block;
        ] );
      ( "free count",
        [
          QCheck_alcotest.to_alcotest ~long:false prop_free_count_equals_oracle;
          QCheck_alcotest.to_alcotest ~long:false prop_free_count_any_plane;
          Alcotest.test_case "backup gauges only while armed" `Quick
            test_backup_gauges_armed_only;
        ] );
      ( "replay",
        QCheck_alcotest.to_alcotest ~long:false prop_replay_equals_live
        :: Alcotest.test_case "oversized xattr refused at the call" `Quick
             test_oversized_xattr_refused
        :: Alcotest.test_case "qtree ids survive replay" `Quick
             test_qtree_ids_survive_replay
        :: Alcotest.test_case "symlink whole across an auto-CP" `Quick
             test_symlink_whole_across_auto_cp
        :: Alcotest.test_case "rename below itself refused" `Quick
             test_rename_below_itself_refused
        :: Alcotest.test_case "a file is no parent" `Quick test_file_is_no_parent
        :: last_entry_cases );
    ]

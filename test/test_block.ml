(* Tests for the block substrate: disk service model, RAID-4 parity and
   reconstruction, volume addressing and full-stripe batching. *)

module Block = Repro_block.Block
module Disk = Repro_block.Disk
module Raid = Repro_block.Raid
module Volume = Repro_block.Volume
module Prng = Repro_util.Prng
module Fault = Repro_fault.Fault

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let block_of_char c = String.make Block.size c

let test_block_helpers () =
  checkb "zero is zero" true (Block.is_zero Block.zeros);
  checkb "nonzero detected" false (Block.is_zero (block_of_char 'x'));
  checki "blocks_for 1" 1 (Block.blocks_for 1);
  checki "blocks_for 4096" 1 (Block.blocks_for 4096);
  checki "blocks_for 4097" 2 (Block.blocks_for 4097);
  checki "blocks_for 0" 0 (Block.blocks_for 0);
  try
    Block.check (String.make 100 'x');
    Alcotest.fail "wrong size should raise"
  with Invalid_argument _ -> ()

let test_disk_read_write () =
  let d = Disk.create ~label:"d0" (Disk.default_params ~blocks:64) in
  let b = block_of_char 'a' in
  Disk.write d 7 b;
  (* the disk keeps the block it was given and hands that same block back *)
  checkb "read back, no copy" true (Disk.read d 7 == b);
  checkb "unwritten reads zero" true (Block.is_zero (Disk.read d 8));
  (* a block read earlier keeps its bytes when the address is rewritten *)
  let r = Disk.read d 7 in
  Disk.write d 7 (block_of_char 'b');
  Alcotest.(check string) "earlier read unchanged" (block_of_char 'a') r;
  Alcotest.(check string) "rewrite visible" (block_of_char 'b') (Disk.read d 7);
  (try
     Disk.write d 8 (String.make 100 'x');
     Alcotest.fail "a short block should raise"
   with Invalid_argument _ -> ())

let test_disk_service_model () =
  let d = Disk.create ~label:"d0" (Disk.default_params ~blocks:4096) in
  (* sequential reads: one seek then streaming *)
  for i = 0 to 99 do
    ignore (Disk.read d i)
  done;
  let seq_busy = Disk.busy_seconds d in
  checki "one seek" 1 (Disk.seeks d);
  Disk.reset_stats d;
  (* far random reads: a seek each *)
  let rng = Prng.create 1 in
  for _ = 0 to 99 do
    ignore (Disk.read d (Prng.int rng 4096))
  done;
  let rand_busy = Disk.busy_seconds d in
  checkb
    (Printf.sprintf "random much slower (%.4f vs %.4f)" rand_busy seq_busy)
    true
    (rand_busy > 5.0 *. seq_busy)

let test_disk_failure () =
  let d = Disk.create ~label:"d0" (Disk.default_params ~blocks:16) in
  Disk.write d 0 (block_of_char 'x');
  Disk.fail d;
  (try
     ignore (Disk.read d 0);
     Alcotest.fail "failed disk should raise"
   with Disk.Disk_failed _ -> ());
  Disk.revive d;
  checkb "revived disk is blank" true (Block.is_zero (Disk.read d 0))

let make_raid () =
  Raid.create ~label:"rg" ~ndisks:5 ~blocks_per_disk:32 (Disk.default_params ~blocks:32)

let test_raid_addressing () =
  let r = make_raid () in
  checki "data disks" 4 (Raid.data_disks r);
  checki "data blocks" 128 (Raid.data_blocks r);
  Alcotest.(check (pair int int)) "gbn 0" (0, 0) (Raid.stripe_of_gbn r 0);
  Alcotest.(check (pair int int)) "gbn 5" (1, 1) (Raid.stripe_of_gbn r 5)

let test_raid_parity_and_reconstruction () =
  let r = make_raid () in
  let rng = Prng.create 2 in
  (* scatter writes *)
  for _ = 1 to 60 do
    let gbn = Prng.int rng (Raid.data_blocks r) in
    let b = Block.zero () in
    for i = 0 to 255 do
      Bytes.set b i (Char.chr (Prng.int rng 256))
    done;
    Raid.write r gbn (Bytes.unsafe_to_string b)
  done;
  checkb "parity consistent after writes" true (Raid.parity_consistent r);
  (* capture, fail a data disk, verify reads reconstruct *)
  let expect = Array.init (Raid.data_blocks r) (fun gbn -> Raid.read r gbn) in
  Raid.fail_disk r 1;
  Array.iteri
    (fun gbn b -> Alcotest.(check string) (Printf.sprintf "gbn %d degraded" gbn) b (Raid.read r gbn))
    expect;
  (* writes in degraded mode still correct *)
  let nb = block_of_char 'N' in
  Raid.write r 1 nb (* gbn 1 lives on the failed disk *);
  Alcotest.(check string) "degraded write" nb (Raid.read r 1);
  (* rebuild onto replacement *)
  Raid.rebuild_disk r 1;
  checkb "parity consistent after rebuild" true (Raid.parity_consistent r);
  Alcotest.(check string) "content after rebuild" nb (Raid.read r 1)

let test_raid_write_stripe () =
  let r = make_raid () in
  let data = Array.init (Raid.data_disks r) (fun i -> block_of_char (Char.chr (65 + i))) in
  Raid.write_stripe r 3 data;
  checkb "parity consistent" true (Raid.parity_consistent r);
  Array.iteri
    (fun i b ->
      Alcotest.(check string)
        (Printf.sprintf "disk %d" i)
        b
        (Raid.read r ((3 * Raid.data_disks r) + i)))
    data

let test_raid_stripe_write_cheaper () =
  (* Full-stripe writes must beat read-modify-write: the reason
     write-anywhere allocation exists. *)
  let a = make_raid () in
  let b = make_raid () in
  let width = Raid.data_disks a in
  let data = Array.init width (fun i -> block_of_char (Char.chr (65 + i))) in
  for s = 0 to 7 do
    Raid.write_stripe a s data
  done;
  let stripe_busy =
    Array.fold_left (fun acc d -> acc +. Disk.busy_seconds d) 0.0 (Raid.disks a)
  in
  for s = 0 to 7 do
    for i = 0 to width - 1 do
      Raid.write b ((s * width) + i) data.(i)
    done
  done;
  let rmw_busy =
    Array.fold_left (fun acc d -> acc +. Disk.busy_seconds d) 0.0 (Raid.disks b)
  in
  checkb
    (Printf.sprintf "stripe %.4fs < rmw %.4fs" stripe_busy rmw_busy)
    true
    (stripe_busy *. 1.5 < rmw_busy)

let test_raid_double_failure () =
  let r = make_raid () in
  Raid.fail_disk r 0;
  Raid.fail_disk r 2;
  try
    ignore (Raid.read r 0);
    Alcotest.fail "double failure should raise"
  with Disk.Disk_failed _ -> ()

let test_volume_flat_space () =
  let v =
    Volume.create ~label:"v"
      (Volume.geometry ~groups:2 ~disks_per_group:4 ~blocks_per_disk:16 ())
  in
  checki "size" (2 * 3 * 16) (Volume.size_blocks v);
  (* write across the group boundary *)
  let last_of_g0 = (3 * 16) - 1 in
  Volume.write v last_of_g0 (block_of_char 'x');
  Volume.write v (last_of_g0 + 1) (block_of_char 'y');
  Alcotest.(check string) "g0" (block_of_char 'x') (Volume.read v last_of_g0);
  Alcotest.(check string) "g1" (block_of_char 'y') (Volume.read v (last_of_g0 + 1));
  checkb "parity ok" true (Volume.parity_consistent v);
  try
    ignore (Volume.read v (Volume.size_blocks v));
    Alcotest.fail "oob should raise"
  with Invalid_argument _ -> ()

let test_volume_write_batch () =
  let v =
    Volume.create ~label:"v"
      (Volume.geometry ~groups:1 ~disks_per_group:5 ~blocks_per_disk:64 ())
  in
  let rng = Prng.create 9 in
  let blocks =
    List.init 100 (fun i ->
        let b = Block.zero () in
        Bytes.set b 0 (Char.chr (Prng.int rng 256));
        Bytes.set b 1 (Char.chr (i mod 256));
        (i + 3, Bytes.unsafe_to_string b))
  in
  Volume.write_batch v
    (Array.of_list (List.map fst blocks))
    (Array.of_list (List.map snd blocks));
  List.iter
    (fun (vbn, b) ->
      Alcotest.(check string) (Printf.sprintf "vbn %d" vbn) b (Volume.read v vbn))
    blocks;
  checkb "parity consistent after batch" true (Volume.parity_consistent v)

let test_volume_read_extent () =
  let v = Volume.create ~label:"v" (Volume.small_geometry ~data_blocks:128) in
  Volume.write v 10 (block_of_char 'a');
  Volume.write v 11 (block_of_char 'b');
  let ext = Volume.read_extent v 10 2 in
  checki "two blocks" 2 (Array.length ext);
  Alcotest.(check char) "first" 'a' ext.(0).[0];
  Alcotest.(check char) "second" 'b' ext.(1).[0];
  checkb "the stored blocks, not copies" true
    (ext.(0) == Volume.read v 10 && ext.(1) == Volume.read v 11)

let test_volume_rebuild () =
  let v = Volume.create ~label:"v" (Volume.small_geometry ~data_blocks:256) in
  let rng = Prng.create 4 in
  for vbn = 0 to 255 do
    let b = Block.zero () in
    Bytes.set_int64_le b 0 (Prng.int64 rng);
    Volume.write v vbn (Bytes.unsafe_to_string b)
  done;
  let before = Array.init 256 (fun vbn -> Volume.read v vbn) in
  Volume.fail_disk v ~group:0 ~disk:2;
  Array.iteri
    (fun vbn b -> Alcotest.(check string) (Printf.sprintf "degraded %d" vbn) b (Volume.read v vbn))
    before;
  Volume.rebuild_disk v ~group:0 ~disk:2;
  checkb "parity ok after rebuild" true (Volume.parity_consistent v);
  Array.iteri
    (fun vbn b -> Alcotest.(check string) (Printf.sprintf "rebuilt %d" vbn) b (Volume.read v vbn))
    before

let prop_volume_batch_equals_singles =
  QCheck2.Test.make ~name:"volume: write_batch equals individual writes"
    QCheck2.Gen.(list_size (int_range 1 60) (pair (int_bound 127) (char_range 'a' 'z')))
    (fun writes ->
      (* last write to each vbn wins in both schemes; dedup keeps it simple *)
      let dedup = Hashtbl.create 16 in
      List.iter (fun (vbn, c) -> Hashtbl.replace dedup vbn c) writes;
      let writes = Hashtbl.fold (fun v c acc -> (v, c) :: acc) dedup [] in
      let v1 = Volume.create ~label:"a" (Volume.small_geometry ~data_blocks:128) in
      let v2 = Volume.create ~label:"b" (Volume.small_geometry ~data_blocks:128) in
      let writes = List.sort compare writes in
      Volume.write_batch v1
        (Array.of_list (List.map fst writes))
        (Array.of_list (List.map (fun (_, c) -> block_of_char c) writes));
      List.iter (fun (vbn, c) -> Volume.write v2 vbn (block_of_char c)) writes;
      List.for_all (fun (vbn, _) -> String.equal (Volume.read v1 vbn) (Volume.read v2 vbn)) writes
      && Volume.parity_consistent v1)

(* ------------------------- stripe writer oracle ------------------------- *)

(* Volume.write_batch takes ascending parallel arrays and checks them;
   the list writer that sorted its input (Oracle.Image_stream.write_batch)
   is the oracle. Random batches over 1-3 RAID groups, made of runs that
   cross group edges and leave partial stripes, go into two volumes with
   the same contents, healthy or with one data or parity disk failed.
   Every disk's counters, then its blocks after a rebuild, and parity
   must come out the same. *)

type fault_case = Healthy | Data_disk_failed | Parity_disk_failed

let gen_batch_case =
  QCheck2.Gen.(
    let* groups = int_range 1 3 in
    let* disks = int_range 3 6 in
    let* bpd = int_range 2 12 in
    let size = groups * (disks - 1) * bpd in
    (* runs: a gap, then a run length *)
    let* runs = list_size (int_range 1 12) (pair (int_bound 6) (int_range 1 (2 * disks))) in
    let* prefill = list_size (int_bound 20) (int_bound (size - 1)) in
    let* fault = oneofl [ Healthy; Data_disk_failed; Parity_disk_failed ] in
    let* fault_at = pair (int_bound (groups - 1)) (int_bound (disks - 2)) in
    let+ seed = nat in
    let vbns =
      let rec go acc next = function
        | [] -> List.rev acc
        | (gap, len) :: rest ->
          let start = next + gap in
          let run = List.filter (fun v -> v < size) (List.init len (fun k -> start + k)) in
          go (List.rev_append run acc) (start + len) rest
      in
      Array.of_list (go [] 0 runs)
    in
    (groups, disks, bpd, vbns, prefill, fault, fault_at, seed))

let stamped seed vbn =
  let b = Block.zero () in
  Bytes.set_int64_le b 0 (Int64.of_int ((seed * 7919) + vbn));
  Bytes.set_int64_le b (Block.size - 8) (Int64.of_int vbn);
  Bytes.unsafe_to_string b

let batch_volumes (groups, disks, bpd, _, prefill, fault, (fg, fd), seed) =
  let make label =
    let v =
      Volume.create ~label (Volume.geometry ~groups ~disks_per_group:disks ~blocks_per_disk:bpd ())
    in
    List.iter (fun vbn -> Volume.write v vbn (stamped (seed + 1) vbn)) prefill;
    (match fault with
    | Healthy -> ()
    | Data_disk_failed -> Volume.fail_disk v ~group:fg ~disk:fd
    | Parity_disk_failed -> Volume.fail_disk v ~group:fg ~disk:(disks - 1));
    Volume.reset_stats v;
    v
  in
  (make "a", make "b")

let disk_stats v =
  let out = ref [] in
  Array.iter
    (fun g ->
      Array.iter
        (fun d ->
          out :=
            (Disk.bytes_moved d, Disk.seeks d, Int64.bits_of_float (Disk.busy_seconds d))
            :: !out)
        (Raid.disks g))
    (Volume.raid_groups v);
  !out

(* Every block of every disk still running. *)
let disk_blocks v =
  Array.to_list (Volume.raid_groups v)
  |> List.concat_map (fun g ->
         let stripes = Raid.data_blocks g / Raid.data_disks g in
         Array.to_list (Raid.disks g)
         |> List.map (fun d ->
                if Disk.failed d then [] else List.init stripes (fun s -> Disk.read d s)))

let rebuild_all v =
  Array.iteri
    (fun gi g ->
      Array.iteri
        (fun di d -> if Disk.failed d then Volume.rebuild_disk v ~group:gi ~disk:di)
        (Raid.disks g))
    (Volume.raid_groups v)

let prop_stripe_writer_equals_oracle =
  QCheck2.Test.make ~count:300 ~name:"stripe writer: ascending arrays = sorting list writer"
    gen_batch_case (fun ((_, _, _, vbns, _, _, _, seed) as case) ->
      let a, b = batch_volumes case in
      let blocks = Array.map (stamped seed) vbns in
      let outcome f = match f () with () -> Ok () | exception e -> Error (Printexc.to_string e) in
      let ra = outcome (fun () -> Volume.write_batch a vbns blocks) in
      let rb =
        outcome (fun () ->
            (* the list writer sorted its input: hand it over reversed *)
            Oracle.Image_stream.write_batch b
              (List.rev (Array.to_list (Array.map2 (fun v blk -> (v, blk)) vbns blocks))))
      in
      let stats_equal = disk_stats a = disk_stats b in
      rebuild_all a;
      rebuild_all b;
      ra = rb && stats_equal
      && List.equal (List.equal String.equal) (disk_blocks a) (disk_blocks b)
      && Volume.parity_consistent a && Volume.parity_consistent b
      && Array.for_all2 (fun vbn blk -> String.equal (Volume.read a vbn) blk) vbns blocks)

(* A batch out of order, with a vbn twice or with one outside the volume
   is refused before any disk is read or written. *)
type damage = Swap | Duplicate | Past_end | Negative | Short_block | Long_len

let prop_stripe_writer_refuses =
  QCheck2.Test.make ~count:200 ~name:"stripe writer: bad batches refused untouched"
    QCheck2.Gen.(
      pair gen_batch_case
        (pair (oneofl [ Swap; Duplicate; Past_end; Negative; Short_block; Long_len ]) nat))
    (fun (((groups, disks, bpd, vbns, _, _, _, seed) as case), (damage, at)) ->
      let size = groups * (disks - 1) * bpd in
      let vbns = if vbns = [||] then [| 0 |] else Array.copy vbns in
      let n = Array.length vbns in
      let blocks = Array.map (stamped seed) vbns in
      let len = ref n in
      (match damage with
      | Swap when n >= 2 ->
        let i = at mod (n - 1) in
        let x = vbns.(i) in
        vbns.(i) <- vbns.(i + 1);
        vbns.(i + 1) <- x
      | Duplicate when n >= 2 ->
        let i = at mod (n - 1) in
        vbns.(i + 1) <- vbns.(i)
      | Swap | Duplicate | Past_end -> vbns.(n - 1) <- size + (at mod 3)
      | Negative -> vbns.(0) <- -1 - (at mod 3)
      | Short_block -> blocks.(at mod n) <- String.make (at mod Block.size) 'x'
      | Long_len -> len := n + 1 + (at mod 3));
      let a, _ = batch_volumes case in
      let before = disk_blocks a in
      Volume.reset_stats a;
      let refused =
        match Volume.write_batch ~len:!len a vbns blocks with
        | () -> false
        | exception Invalid_argument _ -> true
      in
      refused
      && List.for_all (fun (bytes, seeks, _) -> bytes = 0 && seeks = 0) (disk_stats a)
      && List.equal (List.equal ( == )) before (disk_blocks a))

(* Block.is_zero scans 64-bit words; the bytewise original
   (Oracle.Raid_xor.is_zero) must agree on zero blocks and on blocks
   with one nonzero byte anywhere, the last byte included. *)
let prop_is_zero_equals_oracle =
  QCheck2.Test.make ~count:300 ~name:"block: word is_zero = bytewise oracle"
    QCheck2.Gen.(option (pair (int_bound (Block.size - 1)) (int_range 1 255)))
    (fun poke ->
      let b = Block.zero () in
      Option.iter (fun (i, v) -> Bytes.set b i (Char.chr v)) poke;
      Block.is_zero (Bytes.to_string b) = Oracle.Raid_xor.is_zero b)

(* Block.xor_into, the parity kernel in C, equals the bytewise oracle
   (Oracle.Raid_xor.xor_into) at every length, a whole block and the
   words' ragged tails included. A source longer than the destination is
   read only over the destination's length. *)
let prop_xor_into_equals_oracle =
  QCheck2.Test.make ~count:300 ~name:"block: xor_into = bytewise oracle"
    QCheck2.Gen.(
      let* n = oneof [ int_range 0 100; return Block.size; int_range 0 10_000 ] in
      triple (string_size (return n)) (string_size (return n)) (int_bound 16))
    (fun (d, s, extra) ->
      let src = s ^ String.make extra '\xff' in
      let got = Bytes.of_string d and want = Bytes.of_string d in
      Block.xor_into got src;
      Oracle.Raid_xor.xor_into want (Bytes.of_string s);
      Bytes.equal got want)

let test_xor_into_refuses_short_source () =
  let dst = Bytes.make 16 'a' in
  (match Block.xor_into dst (String.make 15 'b') with
  | () -> Alcotest.fail "a 15-byte source was xored into 16 bytes"
  | exception Invalid_argument _ -> ());
  Alcotest.(check string) "destination untouched" (String.make 16 'a') (Bytes.to_string dst)

(* RAID parity is xored by Block.xor_into and small writes xor
   old parity, old data and new data straight off the disks. After any
   mix of small and full-stripe writes, every live parity block must be
   the bytewise oracle xor (Oracle.Raid_xor) of the stripe's intended
   data, and every block must read back as written (zeros if never
   written): with all disks up, with a data or the parity disk failed
   part-way, and with latent sector errors repaired from parity during
   small writes. *)
type raid_op = Small of int * int | Full of int * int

type raid_case = Clean | Fail_data of int * int | Fail_parity of int | Lse of int

let gen_raid_case =
  let ndisks = 5 and stripes = 6 in
  let width = ndisks - 1 in
  QCheck2.Gen.(
    let op =
      oneof
        [
          map2 (fun g seed -> Small (g, seed)) (int_bound ((width * stripes) - 1)) nat;
          map2 (fun st seed -> Full (st, seed)) (int_bound (stripes - 1)) nat;
        ]
    in
    let* ops = list_size (int_range 1 40) op in
    let n = List.length ops in
    let+ case =
      oneof
        [
          return Clean;
          map2 (fun d at -> Fail_data (d, at)) (int_bound (width - 1)) (int_bound n);
          map (fun at -> Fail_parity at) (int_bound n);
          map (fun d -> Lse d) (int_bound (ndisks - 1));
        ]
    in
    (ops, case))

let prop_raid_parity_equals_oracle =
  QCheck2.Test.make ~count:200 ~name:"raid: word parity = bytewise oracle xor" gen_raid_case
    (fun (ops, case) ->
      let r = Raid.create ~label:"q" ~ndisks:5 ~blocks_per_disk:6 (Disk.default_params ~blocks:6) in
      let width = Raid.data_disks r in
      let model = Array.make (Raid.data_blocks r) Block.zeros in
      let content seed =
        let rng = Prng.create seed in
        String.init Block.size (fun _ -> Char.unsafe_chr (Prng.int rng 256))
      in
      let apply i op =
        (match case with
        | Fail_data (d, at) when at = i -> Raid.fail_disk r d
        | Fail_parity at when at = i -> Raid.fail_disk r width
        | _ -> ());
        match op with
        | Small (gbn, seed) ->
          let b = content seed in
          Raid.write r gbn b;
          model.(gbn) <- b
        | Full (stripe, seed) ->
          let data = Array.init width (fun k -> content (seed + k)) in
          Raid.write_stripe r stripe data;
          Array.iteri (fun k b -> model.((stripe * width) + k) <- b) data
      in
      let lse_repaired =
        match (case, ops) with
        | Lse d, Small (gbn, _) :: _ ->
          (* a latent error in the first small write's stripe, on its data
             disk, on parity, or on a disk its pre-reads do not touch *)
          let stripe, di = Raid.stripe_of_gbn r gbn in
          let plane =
            Fault.plan
              [ Fault.Latent_sector_error { device = Printf.sprintf "q.d%d" d; addr = stripe } ]
          in
          Fault.with_armed plane (fun () -> List.iteri apply ops);
          d = di || d = width
        | _ ->
          List.iteri apply ops;
          false
      in
      let parity_ok stripe =
        Disk.failed (Raid.disks r).(width)
        ||
        let want = Block.zero () in
        for k = 0 to width - 1 do
          Oracle.Raid_xor.xor_into want (Bytes.of_string model.((stripe * width) + k))
        done;
        String.equal (Bytes.to_string want) (Disk.read (Raid.disks r).(width) stripe)
      in
      List.for_all parity_ok (List.init 6 Fun.id)
      && Array.for_all Fun.id (Array.mapi (fun gbn b -> String.equal b (Raid.read r gbn)) model)
      && ((not lse_repaired) || Raid.media_repairs r = 1))

let () =
  Alcotest.run "block"
    [
      ( "block",
        [ Alcotest.test_case "helpers" `Quick test_block_helpers ] );
      ( "disk",
        [
          Alcotest.test_case "read/write" `Quick test_disk_read_write;
          Alcotest.test_case "seek model" `Quick test_disk_service_model;
          Alcotest.test_case "failure and revive" `Quick test_disk_failure;
        ] );
      ( "raid4",
        [
          Alcotest.test_case "addressing" `Quick test_raid_addressing;
          Alcotest.test_case "parity and reconstruction" `Quick
            test_raid_parity_and_reconstruction;
          Alcotest.test_case "write_stripe" `Quick test_raid_write_stripe;
          Alcotest.test_case "stripe writes cheaper than RMW" `Quick
            test_raid_stripe_write_cheaper;
          Alcotest.test_case "double failure raises" `Quick test_raid_double_failure;
        ] );
      ( "volume",
        [
          Alcotest.test_case "flat address space" `Quick test_volume_flat_space;
          Alcotest.test_case "write_batch" `Quick test_volume_write_batch;
          Alcotest.test_case "read_extent" `Quick test_volume_read_extent;
          Alcotest.test_case "disk loss and rebuild" `Quick test_volume_rebuild;
        ] );
      ( "volume properties",
        [ QCheck_alcotest.to_alcotest ~long:false prop_volume_batch_equals_singles ] );
      ( "stripe writer",
        [
          QCheck_alcotest.to_alcotest ~long:false prop_stripe_writer_equals_oracle;
          QCheck_alcotest.to_alcotest ~long:false prop_stripe_writer_refuses;
        ] );
      ( "xor kernel",
        [
          Alcotest.test_case "refuses a short source" `Quick
            test_xor_into_refuses_short_source;
          QCheck_alcotest.to_alcotest ~long:false prop_xor_into_equals_oracle;
        ] );
      ( "raid properties",
        [
          QCheck_alcotest.to_alcotest ~long:false prop_is_zero_equals_oracle;
          QCheck_alcotest.to_alcotest ~long:false prop_raid_parity_equals_oracle;
        ] );
    ]

(* Unit and property tests for the util substrate: serialization cursors,
   bitmaps, CRC-32, the PRNG, the binary heap, and the LRU. *)

module Serde = Repro_util.Serde
module Bitmap = Repro_util.Bitmap
module Crc32 = Repro_util.Crc32
module Prng = Repro_util.Prng
module Heap = Oracle.Heap
module Stage = Repro_util.Stage
module Units = Repro_util.Units
module Atomic_file = Repro_util.Atomic_file
module Ambient = Repro_util.Ambient

module Lru = Repro_util.Lru.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

(* ------------------------------- serde ------------------------------- *)

let test_serde_roundtrip () =
  let w = Serde.writer () in
  Serde.write_u8 w 0xab;
  Serde.write_u16 w 0xbeef;
  Serde.write_u32 w 0xdeadbeef;
  Serde.write_u64 w 0x1122334455667788L;
  Serde.write_int w (-42);
  Serde.write_bool w true;
  Serde.write_string w "hello";
  Serde.write_fixed w "RAW";
  let r = Serde.reader (Serde.contents w) in
  checki "u8" 0xab (Serde.read_u8 r);
  checki "u16" 0xbeef (Serde.read_u16 r);
  checki "u32" 0xdeadbeef (Serde.read_u32 r);
  Alcotest.(check int64) "u64" 0x1122334455667788L (Serde.read_u64 r);
  checki "int" (-42) (Serde.read_int r);
  checkb "bool" true (Serde.read_bool r);
  checks "string" "hello" (Serde.read_string r);
  checks "fixed" "RAW" (Serde.read_fixed r 3);
  checkb "at end" true (Serde.at_end r)

let test_serde_truncation () =
  let r = Serde.reader "ab" in
  (try
     ignore (Serde.read_u32 r);
     Alcotest.fail "expected Corrupt"
   with Serde.Corrupt _ -> ());
  let r2 = Serde.reader "\x02" in
  try
    ignore (Serde.read_bool r2);
    Alcotest.fail "expected Corrupt on bad bool"
  with Serde.Corrupt _ -> ()

let test_serde_magic () =
  let w = Serde.writer () in
  Serde.write_fixed w "MAGIC";
  let r = Serde.reader (Serde.contents w) in
  Serde.expect_magic r "MAGIC";
  let r2 = Serde.reader "WRONG" in
  try
    Serde.expect_magic r2 "MAGIC";
    Alcotest.fail "expected Corrupt"
  with Serde.Corrupt _ -> ()

let prop_serde_string_roundtrip =
  QCheck2.Test.make ~name:"serde: any string round-trips"
    QCheck2.Gen.(string_size (int_bound 2000))
    (fun s ->
      let w = Serde.writer () in
      Serde.write_string w s;
      String.equal s (Serde.read_string (Serde.reader (Serde.contents w))))

let prop_serde_int_roundtrip =
  QCheck2.Test.make ~name:"serde: any int round-trips" QCheck2.Gen.int (fun i ->
      let w = Serde.writer () in
      Serde.write_int w i;
      i = Serde.read_int (Serde.reader (Serde.contents w)))

(* ------------------------------ bitmap ------------------------------- *)

let test_bitmap_basics () =
  let b = Bitmap.create 77 in
  checki "empty" 0 (Bitmap.count b);
  Bitmap.set b 0;
  Bitmap.set b 76;
  Bitmap.set b 33;
  checki "three" 3 (Bitmap.count b);
  checkb "get 33" true (Bitmap.get b 33);
  Bitmap.clear b 33;
  checkb "cleared" false (Bitmap.get b 33);
  Alcotest.(check (list int)) "to_list" [ 0; 76 ] (Bitmap.to_list b);
  Alcotest.(check (option int)) "first set" (Some 76) (Bitmap.first_set_from b 1);
  Alcotest.(check (option int)) "first clear" (Some 1) (Bitmap.first_clear_from b 0);
  try
    Bitmap.set b 77;
    Alcotest.fail "out of bounds should raise"
  with Invalid_argument _ -> ()

let test_bitmap_fill_tail () =
  (* fill true must not set bits beyond the length in the last byte *)
  let b = Bitmap.create 13 in
  Bitmap.fill b true;
  checki "count = length" 13 (Bitmap.count b);
  let b2 = Bitmap.create 13 in
  Bitmap.fill b2 true;
  checkb "equal" true (Bitmap.equal b b2)

let test_bitmap_serde () =
  let b = Bitmap.create 100 in
  List.iter (Bitmap.set b) [ 1; 9; 64; 99 ];
  let w = Serde.writer () in
  Bitmap.write w b;
  let b' = Bitmap.read (Serde.reader (Serde.contents w)) in
  checkb "round trip" true (Bitmap.equal b b')

let gen_bitmap =
  QCheck2.Gen.(
    let* len = int_range 1 300 in
    let* bits = list_size (int_bound 100) (int_bound (len - 1)) in
    return (len, bits))

let bitmap_of (len, bits) =
  let b = Bitmap.create len in
  List.iter (fun i -> Bitmap.set b i) bits;
  b

let prop_bitmap_algebra =
  QCheck2.Test.make ~name:"bitmap: set algebra laws"
    QCheck2.Gen.(pair gen_bitmap gen_bitmap)
    (fun ((la, ba), (lb, bb)) ->
      let len = Stdlib.max la lb in
      let a = bitmap_of (len, List.filter (fun i -> i < len) ba) in
      let b = bitmap_of (len, List.filter (fun i -> i < len) bb) in
      let diff = Bitmap.diff a b in
      let ok = ref true in
      for i = 0 to len - 1 do
        if Bitmap.get diff i <> (Bitmap.get a i && not (Bitmap.get b i)) then ok := false
      done;
      !ok
      && Bitmap.count a = Bitmap.count diff + Bitmap.count (Bitmap.inter a b)
      && Bitmap.count (Bitmap.union a b)
         = Bitmap.count a + Bitmap.count b - Bitmap.count (Bitmap.inter a b))

let prop_bitmap_subset =
  QCheck2.Test.make ~name:"bitmap: inter is a subset of both" gen_bitmap
    (fun (len, bits) ->
      let a = bitmap_of (len, bits) in
      let b = bitmap_of (len, List.filteri (fun i _ -> i mod 2 = 0) bits) in
      Bitmap.subset (Bitmap.inter a b) a && Bitmap.subset (Bitmap.inter a b) b)

let prop_bitmap_serde =
  QCheck2.Test.make ~name:"bitmap: serialization round-trips" gen_bitmap (fun spec ->
      let b = bitmap_of spec in
      let w = Serde.writer () in
      Bitmap.write w b;
      Bitmap.equal b (Bitmap.read (Serde.reader (Serde.contents w))))

(* Bitmaps long enough to span several 64-bit words plus a ragged tail,
   from empty through sparse to full. *)
let gen_wide_bitmap_pair =
  QCheck2.Gen.(
    let* len = int_range 0 700 in
    let plane =
      let* density = oneofl [ 0.0; 0.01; 0.2; 0.9; 1.0 ] in
      let+ coins = list_repeat len (float_bound_exclusive 1.0) in
      List.concat (List.mapi (fun i c -> if c < density then [ i ] else []) coins)
    in
    let+ a = plane and+ b = plane in
    (len, a, b))

(* count, iter_set, union_into, union, inter, diff and is_empty scan
   64-bit words; the byte-at-a-time originals (Oracle.Bitmap) must agree
   on every result and leave the same bytes. *)
let prop_bitmap_words_equal_bytewise =
  QCheck2.Test.make ~count:300 ~name:"bitmap: word kernels = bytewise oracle"
    gen_wide_bitmap_pair (fun (len, ba, bb) ->
      let a = bitmap_of (len, ba) and b = bitmap_of (len, bb) in
      let oa = Oracle.Bitmap.of_bitmap a and ob = Oracle.Bitmap.of_bitmap b in
      let same lib (o : Oracle.Bitmap.t) = Bytes.equal (Oracle.Bitmap.of_bitmap lib).bits o.bits in
      let set_bits iter t =
        let acc = ref [] in
        iter (fun i -> acc := i :: !acc) t;
        List.rev !acc
      in
      let dst = Bitmap.copy a and odst = Oracle.Bitmap.of_bitmap a in
      Bitmap.union_into ~dst b;
      Oracle.Bitmap.union_into ~dst:odst ob;
      Bitmap.count a = Oracle.Bitmap.count oa
      && set_bits Bitmap.iter_set a = set_bits Oracle.Bitmap.iter_set oa
      && same dst odst
      && same (Bitmap.union a b) (Oracle.Bitmap.union oa ob)
      && same (Bitmap.inter a b) (Oracle.Bitmap.inter oa ob)
      && same (Bitmap.diff a b) (Oracle.Bitmap.diff oa ob)
      && Bitmap.is_empty a = Oracle.Bitmap.is_empty oa
      && Bitmap.is_empty (Bitmap.diff a b) = Oracle.Bitmap.is_empty (Oracle.Bitmap.diff oa ob))

(* ------------------------------- crc32 ------------------------------- *)

let test_crc32_vectors () =
  checki "check value" 0xcbf43926 (Crc32.string "123456789");
  checki "empty" 0 (Crc32.string "");
  checkb "differs on change" true (Crc32.string "hello" <> Crc32.string "hellp")

let test_crc32_incremental () =
  let s = "the quick brown fox jumps over the lazy dog" in
  let whole = Crc32.string s in
  let stepped =
    Crc32.finish
      (Crc32.update_substring
         (Crc32.update_substring Crc32.init s 0 10)
         s 10
         (String.length s - 10))
  in
  checki "incremental = one-shot" whole stepped

(* Every CRC kernel (Crc32.Private.kernels: the carry-less-multiply fold
   where the CPU has one, and the portable table loop on every host)
   computes the bytewise oracle's function (Oracle.Crc32) from any start
   state, at any offset. Lengths 0–200 cover the table loop alone and the
   first folds; 64k+r and 16k+r lengths sit on either side of each fold
   edge; the rest run up to 70 KB. Offsets 0–31 move the start across
   every 16-byte alignment, so the fold's head loop sees each length. The
   start state is the CRC of a random 4-byte prefix, which reaches every
   32-bit state. *)
let prop_crc32_kernels_equal_bytewise =
  let open QCheck2.Gen in
  let len =
    oneof
      [
        int_range 0 200;
        map2 (fun k r -> (64 * k) + r) (int_range 1 64) (int_range (-1) 16);
        map2 (fun k r -> (16 * k) + r) (int_range 4 300) (int_range (-1) 1);
        int_range 200 70_000;
      ]
  in
  QCheck2.Test.make ~count:300 ~name:"crc32: every kernel = bytewise"
    ~print:(fun (prefix, s, pos, len) ->
      Printf.sprintf "prefix %S, %d-byte string, pos %d, len %d" prefix (String.length s) pos
        len)
    (let* prefix = string_size (return 4) in
     let* pos, len, slack = triple (int_bound 31) len (int_bound 20) in
     let+ s = string_size (return (pos + len + slack)) in
     (prefix, s, pos, len))
    (fun (prefix, s, pos, len) ->
      let want =
        Oracle.Crc32.(
          finish (update_substring_bytewise (update_string init prefix) s pos len))
      in
      let start = Crc32.update_string Crc32.init prefix in
      List.for_all
        (fun (_, kernel) -> Crc32.finish (kernel start s pos len) = want)
        Crc32.Private.kernels)

(* Crc32 feeds the C kernels at most 1 MiB per call; input longer than
   that is split, and each kernel must carry the state across the split
   exactly as the oracle's one pass does. *)
let test_crc32_chunk_split () =
  let mib = 1 lsl 20 in
  let b = Bytes.create ((2 * mib) + 100) in
  Prng.fill (Prng.create 7) b 0 (Bytes.length b);
  let s = Bytes.to_string b in
  List.iter
    (fun (pos, len) ->
      let want = Oracle.Crc32.substring s pos len in
      List.iter
        (fun (name, kernel) ->
          checki
            (Printf.sprintf "%s, pos %d, len %d" name pos len)
            want
            (Crc32.finish (kernel Crc32.init s pos len)))
        Crc32.Private.kernels;
      checki (Printf.sprintf "substring, pos %d, len %d" pos len) want
        (Crc32.substring s pos len))
    [ (0, mib); (1, mib - 1); (3, mib + 1); (5, (2 * mib) + 77) ]

let test_crc32_bounds () =
  List.iter
    (fun (pos, len) ->
      List.iter
        (fun (name, kernel) ->
          match kernel Crc32.init "0123456789" pos len with
          | _ -> Alcotest.failf "%s accepted pos %d, len %d" name pos len
          | exception Invalid_argument _ -> ())
        (("update_substring", Crc32.update_substring) :: Crc32.Private.kernels))
    [ (-1, 2); (0, -1); (0, 11); (10, 1); (max_int, 2); (2, max_int) ]

let prop_crc32_detects_flip =
  QCheck2.Test.make ~name:"crc32: single byte flip always detected"
    QCheck2.Gen.(pair (string_size (int_range 1 500)) (int_bound 10_000))
    (fun (s, pos) ->
      let pos = pos mod String.length s in
      let b = Bytes.of_string s in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x5a));
      Crc32.string s <> Crc32.string (Bytes.to_string b))

(* ------------------------------- stage ------------------------------- *)

(* The shared stager emits exactly the pieces of the Buffer chunker it
   replaced in tape blocking and session MTU cutting (Oracle.Chunker):
   piece sizes down to 1, writes past twice the piece size (which force
   the stage to grow), empty writes, mid-stream flushes, and a final
   flush. *)
type stage_op = Write of string | Flush

let stage_gen =
  let open QCheck2.Gen in
  let* piece = oneof [ return 1; int_range 1 64 ] in
  let op =
    frequency
      [
        (8, map (fun s -> Write s) (string_size (int_bound ((3 * piece) + 8))));
        (1, return Flush);
      ]
  in
  pair (return piece) (list_size (int_bound 30) op)

let prop_stage_matches_chunker =
  QCheck2.Test.make ~count:500 ~name:"stage: pieces = Buffer chunker oracle"
    stage_gen (fun (piece, ops) ->
      let got = ref [] and want = ref [] in
      let st = Stage.create ~piece ~emit:(fun p -> got := p :: !got) in
      let o = Oracle.Chunker.create ~piece ~emit:(fun p -> want := p :: !want) in
      List.iter
        (function
          | Write s ->
            Stage.add st s;
            Oracle.Chunker.add o s;
            Oracle.Chunker.flush_chunks o ~all:false
          | Flush ->
            Stage.flush st;
            Oracle.Chunker.flush_chunks o ~all:true)
        (ops @ [ Flush ]);
      !got = !want)

let test_stage_rejects_empty_piece () =
  Alcotest.check_raises "piece 0" (Invalid_argument "Stage.create") (fun () ->
      ignore (Stage.create ~piece:0 ~emit:ignore))

(* -------------------------------- prng ------------------------------- *)

let test_prng_determinism () =
  let a = Prng.create 7 and b = Prng.create 7 in
  for _ = 1 to 100 do
    checki "same stream" (Prng.int a 1000) (Prng.int b 1000)
  done;
  let c = Prng.create 8 in
  let differs = ref false in
  for _ = 1 to 20 do
    if Prng.int a 1000 <> Prng.int c 1000 then differs := true
  done;
  checkb "different seeds differ" true !differs

let test_prng_ranges () =
  let rng = Prng.create 3 in
  for _ = 1 to 1000 do
    let v = Prng.int rng 17 in
    checkb "in range" true (v >= 0 && v < 17);
    let f = Prng.float rng 2.5 in
    checkb "float in range" true (f >= 0.0 && f < 2.5);
    let x = Prng.int_in rng (-5) 5 in
    checkb "int_in" true (x >= -5 && x <= 5)
  done

let test_prng_distributions () =
  let rng = Prng.create 11 in
  let n = 4001 in
  let samples =
    Array.init n (fun _ -> Prng.lognormal rng ~mu:(Float.log 8192.0) ~sigma:1.4)
  in
  Array.sort compare samples;
  let median = samples.(n / 2) in
  checkb
    (Printf.sprintf "lognormal median ~8192 (got %.0f)" median)
    true
    (median > 5500.0 && median < 12000.0);
  let zipf = Prng.zipf_table ~n:100 ~s:1.2 in
  let low = ref 0 in
  for _ = 1 to 1000 do
    if zipf rng <= 10 then incr low
  done;
  checkb "zipf: rank<=10 majority" true (!low > 500);
  let total = ref 0.0 in
  for _ = 1 to 5000 do
    total := !total +. Prng.exponential rng ~mean:3.0
  done;
  let mean = !total /. 5000.0 in
  checkb
    (Printf.sprintf "exponential mean ~3 (got %.2f)" mean)
    true
    (mean > 2.7 && mean < 3.3)

(* The generator keeps its state unboxed; the boxed-int64 original
   (Oracle.Prng) must produce the same stream under any interleaving of
   draws, with bounds at 1, every power of two up to 2^61, 2^61 - 1 and
   at random. *)
type prng_op = Int of int | Int_in of int * int | Int64 | Float of float | Bool | Choose of int

let gen_prng_ops =
  QCheck2.Gen.(
    let bound =
      oneof
        [
          return 1;
          map (fun k -> 1 lsl k) (int_range 0 61);
          return ((1 lsl 61) - 1);
          int_range 1 1_000_000;
        ]
    in
    let op =
      oneof
        [
          map (fun b -> Int b) bound;
          map2 (fun lo span -> Int_in (lo, lo + span)) (int_range (-1000) 1000) (int_bound 5000);
          return Int64;
          map (fun f -> Float f) (float_range 0.0 1e9);
          return Bool;
          map (fun n -> Choose n) (int_range 1 40);
        ]
    in
    pair (int_range (-1000) 1_000_000) (list_size (int_range 1 200) op))

let prop_prng_equals_boxed =
  QCheck2.Test.make ~count:300 ~name:"prng: unboxed state = boxed-int64 oracle" gen_prng_ops
    (fun (seed, ops) ->
      let t = Prng.create seed and o = Oracle.Prng.create seed in
      List.for_all
        (function
          | Int b -> Prng.int t b = Oracle.Prng.int o b
          | Int_in (lo, hi) -> Prng.int_in t lo hi = Oracle.Prng.int_in o lo hi
          | Int64 -> Int64.equal (Prng.int64 t) (Oracle.Prng.int64 o)
          | Float b ->
            Int64.equal
              (Int64.bits_of_float (Prng.float t b))
              (Int64.bits_of_float (Oracle.Prng.float o b))
          | Bool -> Prng.bool t = Oracle.Prng.bool o
          | Choose n ->
            let a = Array.init n Fun.id in
            Prng.choose t a = Oracle.Prng.choose o a)
        ops)

(* Prng.fill writes, and consumes, exactly what the per-byte loop of the
   content generator drew: [int t 256] per byte, on the boxed oracle. The
   bytes outside the range stay put, and both generators agree
   afterwards. *)
let prop_prng_fill_equals_per_byte =
  QCheck2.Test.make ~count:200 ~name:"prng: fill = per-byte int 256 oracle"
    QCheck2.Gen.(quad nat (int_bound 10_000) (int_bound 64) (int_bound 64))
    (fun (seed, len, off, slack) ->
      let t = Prng.create seed and o = Oracle.Prng.create seed in
      let size = off + len + slack in
      let b = Bytes.make size '\x5a' and ob = Bytes.make size '\x5a' in
      Prng.fill t b off len;
      Oracle.Prng.fill o ob off len;
      Bytes.equal b ob && Int64.equal (Prng.int64 t) (Oracle.Prng.int64 o))

let test_prng_int_allocates_nothing () =
  let rng = Prng.create 9 in
  let sink = ref 0 in
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    sink := !sink + Prng.int rng 256 + Bool.to_int (Prng.bool rng)
  done;
  let words = Gc.minor_words () -. before in
  checkb (Printf.sprintf "10k int + bool draws allocate nothing (%.0f words)" words) true
    (words < 64.0);
  ignore (Sys.opaque_identity !sink)

let test_prng_shuffle () =
  let rng = Prng.create 5 in
  let a = Array.init 50 (fun i -> i) in
  Prng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 (fun i -> i)) sorted;
  checkb "actually shuffled" true (a <> Array.init 50 (fun i -> i))

(* -------------------------------- heap ------------------------------- *)

(* The oracle heap the event-queue properties in test_sim trust. *)

let test_heap_ordering () =
  let h = Heap.create ~cmp:compare in
  List.iter (Heap.push h) [ 5; 1; 4; 1; 3; 9; 0 ];
  let out = ref [] in
  let rec drain () =
    match Heap.pop h with
    | Some v ->
      out := v :: !out;
      drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int)) "sorted" [ 9; 5; 4; 3; 1; 1; 0 ] !out

let test_heap_fifo_ties () =
  (* equal keys must pop in insertion order (determinism for the DES) *)
  let h = Heap.create ~cmp:(fun (a, _) (b, _) -> compare a b) in
  List.iter (Heap.push h) [ (1, "first"); (1, "second"); (1, "third") ];
  checks "fifo 1" "first" (snd (Heap.pop_exn h));
  checks "fifo 2" "second" (snd (Heap.pop_exn h));
  checks "fifo 3" "third" (snd (Heap.pop_exn h))

let prop_heap_sorts =
  QCheck2.Test.make ~name:"heap: drains in sorted order"
    QCheck2.Gen.(list_size (int_bound 200) int)
    (fun l ->
      let h = Heap.create ~cmp:compare in
      List.iter (Heap.push h) l;
      let rec drain acc =
        match Heap.pop h with Some v -> drain (v :: acc) | None -> List.rev acc
      in
      drain [] = List.sort compare l)

(* -------------------------------- lru -------------------------------- *)

let test_lru_eviction () =
  let l = Lru.create ~capacity:3 in
  Lru.add l 1 "a";
  Lru.add l 2 "b";
  Lru.add l 3 "c";
  ignore (Lru.find l 1);
  Lru.add l 4 "d";
  checkb "2 evicted" false (Lru.mem l 2);
  checkb "3 kept" true (Lru.mem l 3);
  checkb "1 kept" true (Lru.mem l 1);
  checkb "4 kept" true (Lru.mem l 4);
  checki "size" 3 (Lru.length l)

let test_lru_peek_no_promote () =
  let l = Lru.create ~capacity:2 in
  Lru.add l 1 "a";
  Lru.add l 2 "b";
  ignore (Lru.peek l 1);
  Lru.add l 3 "c";
  checkb "1 evicted despite peek" false (Lru.mem l 1)

let test_lru_replace () =
  let l = Lru.create ~capacity:2 in
  Lru.add l 1 "a";
  Lru.add l 1 "b";
  checki "no duplicate" 1 (Lru.length l);
  Alcotest.(check (option string)) "updated" (Some "b") (Lru.find l 1)

(* The node-linked LRU against the list one: under random adds, finds,
   peeks and removes, every answer, every key's membership and the size
   agree after each step; then filling it with fresh keys evicts in the
   same order, which is the recency order. *)
type lru_op = L_add of int * int | L_find of int | L_peek of int | L_remove of int

let prop_lru_equals_list =
  QCheck2.Test.make ~count:300 ~name:"lru: linked nodes = list oracle"
    QCheck2.Gen.(
      pair (int_range 1 5)
        (list_size (int_range 0 60)
           (let key = int_bound 7 in
            frequency
              [
                (4, map2 (fun k v -> L_add (k, v)) key nat);
                (3, map (fun k -> L_find k) key);
                (1, map (fun k -> L_peek k) key);
                (1, map (fun k -> L_remove k) key);
              ])))
    (fun (capacity, ops) ->
      let l = Lru.create ~capacity and o = Oracle.Lru.create ~capacity in
      let same () =
        Lru.length l = Oracle.Lru.length o
        && List.for_all (fun k -> Lru.mem l k = Oracle.Lru.mem o k) (List.init 8 Fun.id)
      in
      List.for_all
        (fun op ->
          let answer =
            match op with
            | L_add (k, v) ->
              Lru.add l k v;
              Oracle.Lru.add o k v;
              true
            | L_find k -> Lru.find l k = Oracle.Lru.find o k
            | L_peek k -> Lru.peek l k = Oracle.Lru.peek o k
            | L_remove k ->
              Lru.remove l k;
              Oracle.Lru.remove o k;
              true
          in
          answer && same ())
        ops
      && List.for_all
           (fun k ->
             Lru.add l k 0;
             Oracle.Lru.add o k 0;
             same ())
           (List.init capacity (fun i -> 100 + i)))

let test_lru_hit_allocates_nothing () =
  let l = Lru.create ~capacity:8 in
  for k = 0 to 7 do
    Lru.add l k (string_of_int k)
  done;
  let sink = ref 0 in
  let count = function Some s -> sink := !sink + String.length s | None -> () in
  let before = Gc.minor_words () in
  for i = 1 to 10_000 do
    count (Lru.find l (i land 7));
    count (Lru.peek l ((i * 3) land 7))
  done;
  let words = Gc.minor_words () -. before in
  checkb (Printf.sprintf "10k find + peek hits allocate nothing (%.0f words)" words) true
    (words < 64.0);
  ignore (Sys.opaque_identity !sink)

(* ------------------------------- units ------------------------------- *)

let test_units () =
  Alcotest.(check (float 0.01)) "mb/s" 10.0 (Units.mb_per_s ~bytes:10_000_000 ~seconds:1.0);
  Alcotest.(check (float 0.01)) "gb/h" 3.6 (Units.gb_per_hour ~bytes:1_000_000 ~seconds:1.0);
  checki "mib" (1024 * 1024) Units.mib

(* ---------------------------- atomic file ---------------------------- *)

let read_all path = In_channel.with_open_bin path In_channel.input_all

(* A fresh directory holding only [path]'s eventual file and temps. *)
let with_dir f =
  let dir = Filename.temp_dir "atomic" "" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let save path s = Atomic_file.write path (fun oc -> output_string oc s)

let test_atomic_replaces () =
  with_dir (fun dir ->
      let path = Filename.concat dir "store.bin" in
      save path "first save, the longer one";
      save path "second";
      Alcotest.(check string) "second save wins" "second" (read_all path);
      Alcotest.(check (array string))
        "no temp file left" [| "store.bin" |] (Sys.readdir dir))

let test_atomic_failed_write () =
  with_dir (fun dir ->
      let path = Filename.concat dir "store.bin" in
      save path "previous bytes";
      (match
         Atomic_file.write path (fun oc ->
             output_string oc "half a new";
             failwith "disk full")
       with
      | () -> Alcotest.fail "a failing write must raise"
      | exception Failure _ -> ());
      Alcotest.(check string) "previous bytes intact" "previous bytes" (read_all path);
      Alcotest.(check (array string))
        "temp file removed" [| "store.bin" |] (Sys.readdir dir))

(* ------------------------------ ambient ------------------------------ *)

let test_ambient_nesting () =
  let slot : string Ambient.t = Ambient.make () in
  let got () = Option.value ~default:"-" (Ambient.get slot) in
  checks "empty" "-" (got ());
  Ambient.with_ slot "outer" (fun () ->
      checks "armed" "outer" (got ());
      Ambient.with_ slot "inner" (fun () -> checks "nested" "inner" (got ()));
      checks "inner restored" "outer" (got ());
      (match Ambient.with_ slot "raising" (fun () -> failwith "boom") with
      | () -> Alcotest.fail "must raise"
      | exception Failure _ -> ());
      checks "restored after raise" "outer" (got ()));
  checks "empty again" "-" (got ())

let test_ambient_per_domain () =
  let slot : string Ambient.t = Ambient.make () in
  Ambient.with_ slot "parent" (fun () ->
      let child =
        Domain.join
          (Domain.spawn (fun () ->
               let before = Ambient.get slot in
               let inside = Ambient.with_ slot "child" (fun () -> Ambient.get slot) in
               (before, inside)))
      in
      Alcotest.(check (pair (option string) (option string)))
        "a spawned domain starts empty and arms its own value" (None, Some "child")
        child;
      Alcotest.(check (option string))
        "the child's arming left the parent's slot alone" (Some "parent")
        (Ambient.get slot))

let qsuite name tests = (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let () =
  Alcotest.run "util"
    [
      ( "serde",
        [
          Alcotest.test_case "round trip" `Quick test_serde_roundtrip;
          Alcotest.test_case "truncation detected" `Quick test_serde_truncation;
          Alcotest.test_case "magic check" `Quick test_serde_magic;
        ] );
      qsuite "serde properties" [ prop_serde_string_roundtrip; prop_serde_int_roundtrip ];
      ( "bitmap",
        [
          Alcotest.test_case "basics" `Quick test_bitmap_basics;
          Alcotest.test_case "fill respects length" `Quick test_bitmap_fill_tail;
          Alcotest.test_case "serialization" `Quick test_bitmap_serde;
        ] );
      qsuite "bitmap properties"
        [
          prop_bitmap_algebra;
          prop_bitmap_subset;
          prop_bitmap_serde;
          prop_bitmap_words_equal_bytewise;
        ];
      ( "crc32",
        [
          Alcotest.test_case "standard vectors" `Quick test_crc32_vectors;
          Alcotest.test_case "incremental" `Quick test_crc32_incremental;
          Alcotest.test_case "chunk split" `Quick test_crc32_chunk_split;
          Alcotest.test_case "bounds" `Quick test_crc32_bounds;
        ] );
      qsuite "crc32 properties"
        [ prop_crc32_kernels_equal_bytewise; prop_crc32_detects_flip ];
      ( "stage",
        [ Alcotest.test_case "rejects empty piece" `Quick test_stage_rejects_empty_piece ]
      );
      qsuite "stage properties" [ prop_stage_matches_chunker ];
      ( "prng",
        [
          Alcotest.test_case "determinism" `Quick test_prng_determinism;
          Alcotest.test_case "ranges" `Quick test_prng_ranges;
          Alcotest.test_case "distributions" `Quick test_prng_distributions;
          Alcotest.test_case "shuffle" `Quick test_prng_shuffle;
          Alcotest.test_case "int and bool allocate nothing" `Quick
            test_prng_int_allocates_nothing;
        ] );
      qsuite "prng properties" [ prop_prng_equals_boxed; prop_prng_fill_equals_per_byte ];
      ( "heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "fifo on ties" `Quick test_heap_fifo_ties;
        ] );
      qsuite "heap properties" [ prop_heap_sorts ];
      ( "lru",
        [
          Alcotest.test_case "eviction order" `Quick test_lru_eviction;
          Alcotest.test_case "peek does not promote" `Quick test_lru_peek_no_promote;
          Alcotest.test_case "replace" `Quick test_lru_replace;
          Alcotest.test_case "a hit allocates nothing" `Quick test_lru_hit_allocates_nothing;
        ] );
      qsuite "lru properties" [ prop_lru_equals_list ];
      ("units", [ Alcotest.test_case "conversions" `Quick test_units ]);
      ( "atomic file",
        [
          Alcotest.test_case "second save replaces, no temp left" `Quick
            test_atomic_replaces;
          Alcotest.test_case "failed save keeps previous bytes" `Quick
            test_atomic_failed_write;
        ] );
      ( "ambient",
        [
          Alcotest.test_case "nesting restores, also after a raise" `Quick
            test_ambient_nesting;
          Alcotest.test_case "slots are per domain" `Quick test_ambient_per_domain;
        ] );
    ]

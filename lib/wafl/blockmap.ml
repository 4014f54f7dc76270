module Bitmap = Repro_util.Bitmap

let nplanes = Layout.nplanes
let words_per_block = 4096 / 4

type t = { planes : Bitmap.t array; nblocks : int }

let create ~nblocks =
  if nblocks <= 0 then invalid_arg "Blockmap.create";
  { planes = Array.init nplanes (fun _ -> Bitmap.create nblocks); nblocks }

let mark_allocated t vbn = Bitmap.set t.planes.(0) vbn
let mark_free t vbn = Bitmap.clear t.planes.(0) vbn
let active_used t = Bitmap.count t.planes.(0)
let active_plane t = Bitmap.copy t.planes.(0)

let word t vbn =
  let w = ref 0 in
  for p = 0 to nplanes - 1 do
    if Bitmap.get t.planes.(p) vbn then w := !w lor (1 lsl p)
  done;
  !w

let is_free_block t vbn = word t vbn = 0

let find_free t ?avoid ~start () =
  let ok vbn =
    is_free_block t vbn
    && match avoid with Some a -> not (Bitmap.get a vbn) | None -> true
  in
  let rec scan vbn stop =
    if vbn >= stop then None else if ok vbn then Some vbn else scan (vbn + 1) stop
  in
  let start = if start < 0 || start >= t.nblocks then 0 else start in
  match scan start t.nblocks with Some v -> Some v | None -> scan 0 start

let in_plane t ~plane vbn = Bitmap.get t.planes.(plane) vbn
let plane_copy t p = Bitmap.copy t.planes.(p)
let plane_used t p = Bitmap.count t.planes.(p)

let free_count t =
  let held = Bitmap.copy t.planes.(0) in
  for p = 1 to nplanes - 1 do
    Bitmap.union_into ~dst:held t.planes.(p)
  done;
  t.nblocks - Bitmap.count held

let capture_snapshot t ~plane =
  if plane <= 0 || plane >= nplanes then invalid_arg "Blockmap.capture_snapshot";
  let src = t.planes.(0) in
  let dst = t.planes.(plane) in
  Bitmap.fill dst false;
  Bitmap.union_into ~dst src

let clear_plane t p =
  if p <= 0 || p >= nplanes then invalid_arg "Blockmap.clear_plane";
  Bitmap.fill t.planes.(p) false

let incremental_blocks t ~base ~target = Bitmap.diff t.planes.(target) t.planes.(base)

type block_state = Not_in_either | Newly_written | Deleted | Unchanged

let block_state ~in_base ~in_target =
  match (in_base, in_target) with
  | false, false -> Not_in_either
  | false, true -> Newly_written
  | true, false -> Deleted
  | true, true -> Unchanged

let state_included = function
  | Newly_written -> true
  | Not_in_either | Deleted | Unchanged -> false

let file_blocks ~nblocks = (nblocks + words_per_block - 1) / words_per_block

(* File block [lbn] holds the words of vbns [lbn * words_per_block, +count);
   none past the end of the map. *)
let span_count t lbn =
  Stdlib.max 0 (Stdlib.min words_per_block (t.nblocks - (lbn * words_per_block)))

let encode_file_block t lbn =
  let b = Bytes.make 4096 '\000' in
  let count = span_count t lbn in
  if count > 0 then Bitmap.to_words t.planes ~first:(lbn * words_per_block) ~count b;
  Bytes.unsafe_to_string b

let load_file_block t lbn block =
  let count = span_count t lbn in
  if count > 0 then Bitmap.of_words t.planes ~first:(lbn * words_per_block) ~count block

let block_size = 4096

let empty_block () = Bytes.make block_size '\000' (* count = 0 *)

let corrupt pos =
  raise
    (Repro_util.Serde.Corrupt
       (Printf.sprintf "directory entry at offset %d runs past the block" pos))

(* [walk s f] calls [f pos len] on each entry of block [s], in storage
   order, and returns the offset just past the last one. The whole entry
   is checked to lie inside the block before [f] sees it, and its length
   is read before, so [f] may overwrite bytes below [pos + len]. *)
let walk s f =
  let size = String.length s in
  if size < 2 then corrupt 0;
  let pos = ref 2 in
  for _ = 1 to String.get_uint16_le s 0 do
    let p = !pos in
    if p + 5 > size then corrupt p;
    let len = 5 + String.get_uint8 s (p + 4) in
    if p + len > size then corrupt p;
    f p len;
    pos := p + len
  done;
  !pos

let used s = walk s (fun _ _ -> ())

let ino_at s pos = Int32.to_int (String.get_int32_le s pos) land 0xffffffff

(* Whether the entry at [pos] is named [name.[npos .. npos + n - 1]]. *)
let rec same_bytes s p name npos n =
  n = 0
  || String.unsafe_get s p = String.unsafe_get name npos
     && same_bytes s (p + 1) name (npos + 1) (n - 1)

let name_is_sub s pos name npos n =
  String.get_uint8 s (pos + 4) = n && same_bytes s (pos + 5) name npos n

let name_is s pos name = name_is_sub s pos name 0 (String.length name)

let entries s =
  let acc = ref [] in
  ignore
    (walk s (fun p len -> acc := (String.sub s (p + 5) (len - 5), ino_at s p) :: !acc));
  List.rev !acc

(* [walk] unrolled for [find_sub], which must allocate nothing: the same
   checks on every entry, in the same order, keeping the first hit. *)
let rec scan s name npos n ~size left p hit =
  if left = 0 then hit
  else begin
    if p + 5 > size then corrupt p;
    let len = 5 + String.get_uint8 s (p + 4) in
    if p + len > size then corrupt p;
    let hit = if hit < 0 && name_is_sub s p name npos n then ino_at s p else hit in
    scan s name npos n ~size (left - 1) (p + len) hit
  end

let find_sub s name ~pos ~len =
  let size = String.length s in
  if size < 2 then corrupt 0;
  scan s name pos len ~size (String.get_uint16_le s 0) 2 (-1)

let find s name =
  let ino = find_sub s name ~pos:0 ~len:(String.length name) in
  if ino < 0 then None else Some ino

let check_ino ino = if ino < 0 || ino > 0xffffffff then invalid_arg "Dir: bad inode number"

let check_name name =
  let len = String.length name in
  if len = 0 || len > Layout.max_name_len then invalid_arg "Dir.add: bad name"

let fits s name =
  check_name name;
  used s + 5 + String.length name <= block_size

(* The bytes past the last entry are zero in every block this module
   writes. *)
let finish b ~count ~used =
  Bytes.set_uint16_le b 0 count;
  Bytes.fill b used (block_size - used) '\000'

let add b name ino =
  check_name name;
  let s = Bytes.unsafe_to_string b in
  let used = used s in
  check_ino ino;
  let len = String.length name in
  if used + 5 + len > block_size then false
  else begin
    Bytes.set_int32_le b used (Int32.of_int ino);
    Bytes.set_uint8 b (used + 4) len;
    Bytes.blit_string name 0 b (used + 5) len;
    finish b ~count:(String.get_uint16_le s 0 + 1) ~used:(used + 5 + len);
    true
  end

let remove b name =
  let s = Bytes.unsafe_to_string b in
  if find s name = None then false
  else begin
    (* slide the kept entries down over the removed ones *)
    let dst = ref 2 and kept = ref 0 in
    ignore
      (walk s (fun p len ->
           if not (name_is s p name) then begin
             Bytes.blit b p b !dst len;
             dst := !dst + len;
             incr kept
           end));
    finish b ~count:!kept ~used:!dst;
    true
  end

let replace b name ino =
  let s = Bytes.unsafe_to_string b in
  if find s name = None then false
  else begin
    check_ino ino;
    let set p _ = if name_is s p name then Bytes.set_int32_le b p (Int32.of_int ino) in
    finish b ~count:(String.get_uint16_le s 0) ~used:(walk s set);
    true
  end

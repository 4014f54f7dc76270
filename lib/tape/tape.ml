type params = { native_mb_s : float; compression : float; capacity_bytes : int }

let dlt7000 =
  { native_mb_s = 5.0; compression = 1.7; capacity_bytes = 35_000_000_000 }

let params ?(native_mb_s = 5.0) ?(compression = 1.7)
    ?(capacity_bytes = 35_000_000_000) () =
  if not (native_mb_s > 0.0 && compression > 0.0) || capacity_bytes <= 0 then
    invalid_arg "Tape.params";
  { native_mb_s; compression; capacity_bytes }

(* Records are immutable: the drive keeps the string it was handed and
   returns it on read, and corruption replaces a record rather than
   editing it. *)
type item = Rec of string | Mark

type media = {
  mlabel : string;
  mutable items : item array;
  mutable nitems : int;
  mutable stored_bytes : int; (* compressed bytes on media *)
}

let blank_media ~label = { mlabel = label; items = [||]; nitems = 0; stored_bytes = 0 }
let media_label m = m.mlabel
let media_bytes m = m.stored_bytes

let media_records m =
  let n = ref 0 in
  for i = 0 to m.nitems - 1 do
    match m.items.(i) with Rec _ -> incr n | Mark -> ()
  done;
  !n

exception End_of_tape
exception No_media

type t = {
  label : string;
  p : params;
  resource : Repro_sim.Resource.t;
  mutable media : media option;
  mutable pos : int;
  mutable busy : float;
  mutable bytes : int;
}

type read_result = Record of string | Filemark | End_of_data

let create ?params:(p = dlt7000) ~label () =
  {
    label;
    p;
    resource = Repro_sim.Resource.create (Printf.sprintf "tape:%s" label);
    media = None;
    pos = 0;
    busy = 0.0;
    bytes = 0;
  }

let label t = t.label
let params_of t = t.p
let resource t = t.resource

let write_media w m =
  let open Repro_util.Serde in
  write_fixed w "RMED1";
  write_string w m.mlabel;
  write_count U32 w m.nitems;
  write_int w m.stored_bytes;
  for i = 0 to m.nitems - 1 do
    match m.items.(i) with
    | Mark -> write_u8 w 0
    | Rec r ->
      write_u8 w 1;
      write_string w r
  done

let read_media r =
  let open Repro_util.Serde in
  expect_magic r "RMED1";
  let mlabel = read_string r in
  let nitems = read_count U32 r in
  let stored_bytes = read_int r in
  let items =
    Array.init nitems (fun _ ->
        match read_u8 r with
        | 0 -> Mark
        | 1 ->
          Rec (read_string r)
        | n -> raise (Corrupt (Printf.sprintf "bad media item tag %d" n)))
  in
  { mlabel; items; nitems; stored_bytes }

let load t m =
  (match t.media with
  | Some _ -> invalid_arg (Printf.sprintf "Tape %s: media already loaded" t.label)
  | None -> ());
  t.media <- Some m;
  t.pos <- 0

let unload t =
  match t.media with
  | None -> raise No_media
  | Some m ->
    t.media <- None;
    t.pos <- 0;
    m

let loaded t = t.media
let require_media t = match t.media with None -> raise No_media | Some m -> m

(* Compressed size of a record on the media. *)
let compressed_size t n =
  Stdlib.max 1 (Float.to_int (Float.ceil (Float.of_int n /. t.p.compression)))

(* Streaming time is governed by the native media rate over compressed
   bytes; payload accounting stays uncompressed. *)
let charge t ~op ~payload ~on_media =
  let secs = Float.of_int on_media /. (t.p.native_mb_s *. 1_000_000.0) in
  t.busy <- t.busy +. secs;
  t.bytes <- t.bytes + payload;
  Repro_sim.Resource.charge t.resource ~bytes:payload secs;
  (* guard keeps the disabled plane to one load-and-branch per record *)
  if Repro_obs.Obs.enabled () then
    Repro_obs.Obs.io ~op ~device:t.label ~addr:t.pos ~bytes:payload secs

let item_size t = function
  | Rec r -> compressed_size t (String.length r)
  | Mark -> 0

(* Truncate media at the current position: writing to the middle of a tape
   discards everything beyond, as on a real drive. *)
let truncate_at t m =
  if t.pos < m.nitems then begin
    for i = t.pos to m.nitems - 1 do
      m.stored_bytes <- m.stored_bytes - item_size t m.items.(i)
    done;
    m.nitems <- t.pos
  end

let append t m item =
  truncate_at t m;
  let cap = Array.length m.items in
  if m.nitems >= cap then begin
    let ncap = Stdlib.max 64 (cap * 2) in
    let ni = Array.make ncap Mark in
    Array.blit m.items 0 ni 0 m.nitems;
    m.items <- ni
  end;
  m.items.(m.nitems) <- item;
  m.nitems <- m.nitems + 1;
  m.stored_bytes <- m.stored_bytes + item_size t item;
  t.pos <- m.nitems

let write_record t s =
  let m = require_media t in
  let on_media = compressed_size t (String.length s) in
  if m.stored_bytes + on_media > t.p.capacity_bytes then raise End_of_tape;
  Repro_fault.Fault.on_tape_write ~device:t.label ~record:t.pos;
  charge t ~op:"tape.write" ~payload:(String.length s) ~on_media;
  append t m (Rec s)

let write_filemark t =
  let m = require_media t in
  Repro_fault.Fault.on_tape_write ~device:t.label ~record:t.pos;
  append t m Mark

let read_record t =
  let m = require_media t in
  if t.pos >= m.nitems then End_of_data
  else begin
    let item = m.items.(t.pos) in
    (match item with
    | Mark -> ()
    | Rec _ -> (
      (* The hook fires before the position advances, so a soft (transient)
         error leaves the drive positioned to retry the same record. A hard
         media error skips past the unreadable record: the drive cannot
         recover it, and staying put would retry it forever. *)
      try Repro_fault.Fault.on_tape_read ~device:t.label ~record:t.pos
      with Repro_fault.Fault.Media_error _ as e ->
        t.pos <- t.pos + 1;
        raise e));
    t.pos <- t.pos + 1;
    match item with
    | Mark -> Filemark
    | Rec r ->
      charge t ~op:"tape.read" ~payload:(String.length r)
        ~on_media:(compressed_size t (String.length r));
      Record r
  end

let charge_delay t secs =
  if secs < 0.0 then invalid_arg "Tape.charge_delay";
  t.busy <- t.busy +. secs;
  Repro_sim.Resource.charge t.resource ~bytes:0 secs;
  if Repro_obs.Obs.enabled () then
    Repro_obs.Obs.io ~op:"tape.delay" ~device:t.label ~bytes:0 secs

let seek_end t =
  let m = require_media t in
  t.pos <- m.nitems

let media_ends_with_record m =
  m.nitems > 0 && (match m.items.(m.nitems - 1) with Rec _ -> true | Mark -> false)

let rewind t =
  ignore (require_media t);
  t.pos <- 0

let skip_filemarks t n =
  let m = require_media t in
  let remaining = ref n in
  while !remaining > 0 do
    if t.pos >= m.nitems then raise End_of_tape;
    (match m.items.(t.pos) with Mark -> decr remaining | Rec _ -> ());
    t.pos <- t.pos + 1
  done

let corrupt_record m ~index =
  let found = ref (-1) in
  let target = ref None in
  (try
     for i = 0 to m.nitems - 1 do
       match m.items.(i) with
       | Rec r ->
         incr found;
         if !found = index then begin
           target := Some (i, r);
           raise Exit
         end
       | Mark -> ()
     done
   with Exit -> ());
  match !target with
  | None -> invalid_arg (Printf.sprintf "Tape.corrupt_record: no record %d" index)
  | Some (i, r) ->
    if String.length r = 0 then invalid_arg "Tape.corrupt_record: empty record";
    (* Flip bits at a few fixed offsets of a copy: deterministic,
       detectable, and a record read earlier keeps its bytes. *)
    let b = Bytes.of_string r in
    let flip off =
      if off < Bytes.length b then
        Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0xff))
    in
    flip (Bytes.length b / 2);
    flip (Bytes.length b - 1);
    flip 0;
    m.items.(i) <- Rec (Bytes.unsafe_to_string b)

let busy_seconds t = t.busy

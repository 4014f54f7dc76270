(* Reference oracles for the library's optimized hot paths.

   Each module below is the original, straightforward implementation of
   an algorithm the library now runs in optimized form — the generic
   comparator heap the event engine used to dispatch on, the bytewise
   CRC-32 loop, the writer-per-frame wire encode, the concatenating
   record reassembler of the mover wire (Mover), the RMED1 encoding of
   byte-buffer tape records (Media), the Buffer record/MTU
   chunker, the in-order span-attribute append, the clock-stepped fluid
   loop the paper tables ran on, the bytewise RAID parity xor and zero
   test, the byte-at-a-time bitmap set operations, the bit-at-a-time
   block-map file codec, the list-decoding directory block codec (Dir)
   and the writer-built inode slot (Inode) that WAFL now edits in place,
   the boxed-state splitmix generator with its per-byte content loop,
   the split-list path walk (Namei) and the list-based LRU (Lru) that
   WAFL now runs in place and without allocating, and logical restore's
   concat-then-write run flush (Restore_run) that it now lends to
   [Fs.writev], and the physical image stream's one-string extent codec,
   re-cut blocks and sorting list writer (Image_stream) that now move
   each block as its own string into a stripe writer over ascending
   arrays. They live here, not in lib/, so the library keeps exactly one
   path per module; the properties in test_util, test_sim, test_block,
   test_tape, test_wafl, test_dump, test_image, test_formats, test_net and
   test_obs assert the library computes the same function as its oracle. Like
   differential.ml, this module is linked into every test executable and
   is not itself a test. *)

module Serde = Repro_util.Serde
module Clock = Repro_sim.Clock

(* ------------------------------- heap ------------------------------- *)

(* Mutable binary min-heap ordered by a user comparison; ties break by
   insertion order. The event engine's original queue. *)
module Heap = struct
  type 'a entry = { value : 'a; seq : int }

  type 'a t = {
    cmp : 'a -> 'a -> int;
    mutable data : 'a entry array;
    mutable size : int;
    mutable next_seq : int;
  }

  let create ~cmp = { cmp; data = [||]; size = 0; next_seq = 0 }
  let length t = t.size

  (* Compare by user order first, then insertion order for determinism. *)
  let entry_le t a b =
    let c = t.cmp a.value b.value in
    c < 0 || (c = 0 && a.seq <= b.seq)

  let grow t =
    let cap = Array.length t.data in
    if t.size >= cap then begin
      let ncap = if cap = 0 then 16 else cap * 2 in
      let nd = Array.make ncap t.data.(0) in
      Array.blit t.data 0 nd 0 t.size;
      t.data <- nd
    end

  let rec sift_up t i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if
        entry_le t t.data.(i) t.data.(parent)
        && not (entry_le t t.data.(parent) t.data.(i))
      then begin
        let tmp = t.data.(i) in
        t.data.(i) <- t.data.(parent);
        t.data.(parent) <- tmp;
        sift_up t parent
      end
    end

  let rec sift_down t i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let smallest = ref i in
    if l < t.size && not (entry_le t t.data.(!smallest) t.data.(l)) then
      smallest := l;
    if r < t.size && not (entry_le t t.data.(!smallest) t.data.(r)) then
      smallest := r;
    if !smallest <> i then begin
      let tmp = t.data.(i) in
      t.data.(i) <- t.data.(!smallest);
      t.data.(!smallest) <- tmp;
      sift_down t !smallest
    end

  let push t value =
    let e = { value; seq = t.next_seq } in
    t.next_seq <- t.next_seq + 1;
    if t.size = 0 && Array.length t.data = 0 then t.data <- Array.make 16 e;
    grow t;
    t.data.(t.size) <- e;
    t.size <- t.size + 1;
    sift_up t (t.size - 1)

  let peek t = if t.size = 0 then None else Some t.data.(0).value

  let pop t =
    if t.size = 0 then None
    else begin
      let top = t.data.(0).value in
      t.size <- t.size - 1;
      if t.size > 0 then begin
        t.data.(0) <- t.data.(t.size);
        sift_down t 0
      end;
      Some top
    end

  let pop_exn t =
    match pop t with Some v -> v | None -> invalid_arg "Heap.pop_exn: empty"
end

(* The event engine as it dispatched on {!Heap}: one record per event,
   ordered by time with insertion-order ties. Same interface as
   Repro_sim.Engine. *)
module Heap_engine = struct
  type event = { time : float; action : unit -> unit }
  type t = { clock : Clock.t; queue : event Heap.t }

  let create () =
    {
      clock = Clock.create ();
      queue = Heap.create ~cmp:(fun a b -> Float.compare a.time b.time);
    }

  let now t = Clock.now t.clock

  let schedule_at t time action =
    if time < Clock.now t.clock -. 1e-9 then
      invalid_arg "Engine.schedule_at: time in the past";
    Heap.push t.queue { time; action }

  let schedule_in t delay action = schedule_at t (now t +. delay) action
  let pending t = Heap.length t.queue

  let step t =
    match Heap.pop t.queue with
    | None -> false
    | Some { time; action } ->
      Clock.advance_to t.clock time;
      action ();
      true

  let run t = while step t do () done

  let next_time t =
    match Heap.peek t.queue with Some e -> e.time | None -> infinity

  let run_until t horizon =
    let continue = ref true in
    while !continue do
      if next_time t <= horizon then ignore (step t) else continue := false
    done;
    Clock.advance_to t.clock horizon
end

(* ------------------------------ crc32 ------------------------------- *)

(* The classic one-table, one-byte-per-step CRC-32 (IEEE polynomial). *)
module Crc32 = struct
  let tab =
    Array.init 256 (fun n ->
        let c = ref n in
        for _ = 0 to 7 do
          if !c land 1 <> 0 then c := 0xedb88320 lxor (!c lsr 1)
          else c := !c lsr 1
        done;
        !c)

  let init = 0xffffffff

  let update_substring_bytewise crc s pos len =
    let c = ref crc in
    for i = pos to pos + len - 1 do
      c := tab.((!c lxor Char.code s.[i]) land 0xff) lxor (!c lsr 8)
    done;
    !c

  let update_string crc s = update_substring_bytewise crc s 0 (String.length s)
  let finish crc = crc lxor 0xffffffff
  let substring s pos len = finish (update_substring_bytewise init s pos len)
end

(* ------------------------------ frame ------------------------------- *)

(* RNF1 framing with a fresh writer per frame and the seq serialized
   before it is checksummed. *)
module Frame = struct
  let magic = "RNF1"
  let overhead = String.length magic + 4 + 4 + 4

  let crc_of_reference ~seq payload =
    let w = Serde.writer ~initial_size:4 () in
    Serde.write_u32 w seq;
    Crc32.finish
      (Crc32.update_string
         (Crc32.update_string Crc32.init (Serde.contents w))
         payload)

  let encode_reference ~seq payload =
    let w = Serde.writer ~initial_size:(overhead + String.length payload) () in
    Serde.write_fixed w magic;
    Serde.write_u32 w seq;
    Serde.write_u32 w (crc_of_reference ~seq payload);
    Serde.write_string w payload;
    Serde.contents w
end

(* ------------------------------ mover ------------------------------- *)

(* The record-over-session reassembler that re-concatenated the pending
   partial item with every delivered chunk. *)
module Mover = struct
  let mark_len = 0xFFFF_FFFF

  (* Reassemble records from MTU-sized delivery chunks. [pending] holds at
     most one partial item (a record is bounded by the blocking factor), so
     the carry-over concatenation stays cheap. *)
  let reassembler ~on_record ~on_mark =
    let pending = ref "" in
    fun chunk ->
      let data = if !pending = "" then chunk else !pending ^ chunk in
      let n = String.length data in
      let pos = ref 0 in
      (try
         while n - !pos >= 4 do
           let len = Int32.to_int (String.get_int32_le data !pos) land mark_len in
           if len = mark_len then begin
             pos := !pos + 4;
             on_mark ()
           end
           else if n - !pos - 4 >= len then begin
             on_record (String.sub data (!pos + 4) len);
             pos := !pos + 4 + len
           end
           else raise Exit
         done
       with Exit -> ());
      pending := String.sub data !pos (n - !pos)
end

(* ------------------------------ media ------------------------------- *)

(* The RMED1 cartridge encoding as written when records were held as
   [bytes]: each record's u32 length, then its bytes. *)
module Media = struct
  type item = Rec of bytes | Mark

  let write_reference w ~label ~stored_bytes items =
    let open Serde in
    write_fixed w "RMED1";
    write_string w label;
    write_u32 w (List.length items);
    write_int w stored_bytes;
    List.iter
      (function
        | Mark -> write_u8 w 0
        | Rec b ->
          write_u8 w 1;
          write_u32 w (Bytes.length b);
          write_bytes w b)
      items
end

(* ----------------------------- chunker ------------------------------ *)

(* The Buffer chunker tape blocking and session MTU cutting both used:
   every full piece is copied out of the buffer's contents and the rest
   re-added; [~all] also emits the short remainder. A tape sink's output
   was [add] then [flush_chunks ~all:false]; its close, [~all:true]. *)
module Chunker = struct
  type t = { buf : Buffer.t; piece : int; emit : string -> unit }

  let create ~piece ~emit = { buf = Buffer.create piece; piece; emit }
  let add t s = Buffer.add_string t.buf s

  let flush_chunks t ~all =
    let buf = t.buf and mtu = t.piece in
    while Buffer.length buf >= mtu do
      let whole = Buffer.contents buf in
      t.emit (String.sub whole 0 mtu);
      Buffer.clear buf;
      Buffer.add_substring buf whole mtu (String.length whole - mtu)
    done;
    if all && Buffer.length buf > 0 then begin
      t.emit (Buffer.contents buf);
      Buffer.clear buf
    end
end

(* --------------------------- span attrs ----------------------------- *)

(* Span attributes kept in call order: annotate appends at the tail,
   closing reverses twice. [Spans] replays span_begin / annotate /
   span_end over a stack of open spans the way the observability plane
   does (ending a span first closes every span opened inside it, marked
   abandoned) and yields each E event's attrs in emission order. *)
module Spans = struct
  type open_span = { os_id : int; mutable os_attrs : Repro_obs.Obs.attr list }

  let end_attrs_reference stored extra = List.rev_append (List.rev stored) extra
  let annotate_reference s attrs = s.os_attrs <- s.os_attrs @ attrs

  type t = {
    mutable next_id : int;
    mutable stack : open_span list;
    mutable ends : (int * Repro_obs.Obs.attr list) list;  (* newest first *)
  }

  let create () = { next_id = 0; stack = []; ends = [] }

  let span_begin t =
    t.next_id <- t.next_id + 1;
    t.stack <- { os_id = t.next_id; os_attrs = [] } :: t.stack;
    t.next_id

  let annotate t attrs =
    match t.stack with s :: _ -> annotate_reference s attrs | [] -> ()

  let end_one t s extra =
    t.ends <- (s.os_id, end_attrs_reference s.os_attrs extra) :: t.ends

  let span_end t ~attrs id =
    if List.exists (fun s -> s.os_id = id) t.stack then begin
      let rec unwind = function
        | s :: rest when s.os_id <> id ->
          end_one t s [ ("abandoned", Repro_obs.Obs.Bool true) ];
          unwind rest
        | s :: rest ->
          end_one t s attrs;
          rest
        | [] -> []
      in
      t.stack <- unwind t.stack
    end

  let ends t = List.rev t.ends
end

(* ---------------------------- stream runner -------------------------- *)

(* The clock-stepped fluid loop the paper tables ran on before they moved
   onto the scheduler core: its own progressive-filling solver over
   [Resource.t] demands (resources met in hash order), stages completing
   when their remaining fraction reaches zero, zero-demand stages
   skipped in zero time, and every interval's service charged to the
   resources as it elapses. Same stream vocabulary as
   {!Repro_backup.Instrument}; the report keeps the original shape. *)
module Pipeline = struct
  open Repro_backup.Instrument
  module Resource = Repro_sim.Resource

  type report = { elapsed : float; stages : stage_summary list }

  type task = {
    mutable stage_index : int;
    mutable remaining : float;
    stream : stream;
    mutable rate : float;
  }

  type stage_acc = {
    acc_label : string;
    mutable acc_start : float;
    mutable acc_finish : float;
    acc_busy : (string, float ref) Hashtbl.t;
    acc_bytes : (string, int ref) Hashtbl.t;
    acc_order : int;
  }

  let eps = 1e-9
  let current_stage task = List.nth task.stream.stages task.stage_index
  let task_done task = task.stage_index >= List.length task.stream.stages

  let solve_rates tasks =
    let resources = Hashtbl.create 16 in
    let resource_key r = Resource.name r in
    List.iter
      (fun t ->
        List.iter
          (fun d ->
            if d.work > 0.0 then
              if not (Hashtbl.mem resources (resource_key d.resource)) then
                Hashtbl.add resources (resource_key d.resource) ())
          (current_stage t).demands)
      tasks;
    let weight t key =
      List.fold_left
        (fun acc d ->
          if String.equal (resource_key d.resource) key then acc +. d.work else acc)
        0.0 (current_stage t).demands
    in
    let unfrozen = ref (List.filter (fun t -> not (task_done t)) tasks) in
    List.iter (fun t -> t.rate <- 0.0) !unfrozen;
    let residual = Hashtbl.create 16 in
    Hashtbl.iter (fun key () -> Hashtbl.replace residual key 1.0) resources;
    let level = ref 0.0 in
    let continue = ref true in
    while !continue && !unfrozen <> [] do
      let best = ref None in
      Hashtbl.iter
        (fun key residual_cap ->
          let total_w =
            List.fold_left (fun acc t -> acc +. weight t key) 0.0 !unfrozen
          in
          if total_w > eps then begin
            let delta = (residual_cap -. (!level *. total_w)) /. total_w in
            match !best with
            | Some (_, d) when d <= delta -> ()
            | _ -> best := Some (key, delta)
          end)
        residual;
      match !best with
      | None ->
        List.iter (fun t -> t.rate <- 1e12) !unfrozen;
        continue := false
      | Some (bottleneck, delta) ->
        let new_level = !level +. Float.max 0.0 delta in
        let frozen_now, still =
          List.partition (fun t -> weight t bottleneck > eps) !unfrozen
        in
        List.iter
          (fun t ->
            t.rate <- new_level;
            List.iter
              (fun d ->
                if d.work > 0.0 then begin
                  let key = resource_key d.resource in
                  let cap = Hashtbl.find residual key in
                  Hashtbl.replace residual key (cap -. (new_level *. d.work))
                end)
              (current_stage t).demands)
          frozen_now;
        level := new_level;
        unfrozen := still;
        if frozen_now = [] then begin
          List.iter (fun t -> t.rate <- Float.max new_level eps) !unfrozen;
          continue := false
        end
    done

  let run streams =
    let clock = Clock.create () in
    let start_time = Clock.now clock in
    let tasks =
      List.map
        (fun s -> { stage_index = 0; remaining = 1.0; stream = s; rate = 0.0 })
        streams
    in
    let accs : (string, stage_acc) Hashtbl.t = Hashtbl.create 16 in
    let order = ref 0 in
    let acc_for label =
      match Hashtbl.find_opt accs label with
      | Some a -> a
      | None ->
        let a =
          {
            acc_label = label;
            acc_start = Clock.now clock;
            acc_finish = Clock.now clock;
            acc_busy = Hashtbl.create 8;
            acc_bytes = Hashtbl.create 8;
            acc_order = !order;
          }
        in
        incr order;
        Hashtbl.add accs label a;
        a
    in
    let bump tbl key v zero add =
      match Hashtbl.find_opt tbl key with
      | Some r -> r := add !r v
      | None -> Hashtbl.add tbl key (ref (add zero v))
    in
    let enter_stage task =
      if not (task_done task) then begin
        let a = acc_for (current_stage task).label in
        if Clock.now clock < a.acc_start then a.acc_start <- Clock.now clock
      end
    in
    List.iter enter_stage tasks;
    let rec skip_instant task =
      if not (task_done task) then begin
        let st = current_stage task in
        let total = List.fold_left (fun acc d -> acc +. d.work) 0.0 st.demands in
        if total <= eps then begin
          let a = acc_for st.label in
          a.acc_finish <- Float.max a.acc_finish (Clock.now clock);
          List.iter
            (fun d ->
              if d.bytes > 0 then
                bump a.acc_bytes (Resource.name d.resource) d.bytes 0 ( + ))
            st.demands;
          task.stage_index <- task.stage_index + 1;
          task.remaining <- 1.0;
          enter_stage task;
          skip_instant task
        end
      end
    in
    List.iter skip_instant tasks;
    let active () = List.filter (fun t -> not (task_done t)) tasks in
    let rec loop () =
      match active () with
      | [] -> ()
      | running ->
        solve_rates running;
        let dt =
          List.fold_left
            (fun acc t -> Float.min acc (t.remaining /. Float.max t.rate eps))
            infinity running
        in
        let dt = Float.max dt 0.0 in
        Clock.advance clock dt;
        List.iter
          (fun t ->
            let st = current_stage t in
            let a = acc_for st.label in
            let progressed = Float.min t.remaining (t.rate *. dt) in
            List.iter
              (fun d ->
                if d.work > 0.0 then begin
                  let secs = progressed *. d.work in
                  Resource.charge d.resource secs;
                  bump a.acc_busy (Resource.name d.resource) secs 0.0 ( +. )
                end)
              st.demands;
            t.remaining <- t.remaining -. progressed;
            if t.remaining <= eps then begin
              a.acc_finish <- Float.max a.acc_finish (Clock.now clock);
              List.iter
                (fun d ->
                  if d.bytes > 0 then begin
                    Resource.charge d.resource ~bytes:d.bytes 0.0;
                    bump a.acc_bytes (Resource.name d.resource) d.bytes 0 ( + )
                  end)
                st.demands;
              t.stage_index <- t.stage_index + 1;
              t.remaining <- 1.0;
              enter_stage t;
              skip_instant t
            end)
          running;
        loop ()
    in
    loop ();
    let stages =
      Hashtbl.fold (fun _ a acc -> a :: acc) accs []
      |> List.sort (fun a b -> compare a.acc_order b.acc_order)
      |> List.map (fun a ->
             {
               stage_label = a.acc_label;
               start = a.acc_start;
               finish = a.acc_finish;
               busy =
                 Hashtbl.fold (fun k v acc -> (k, !v) :: acc) a.acc_busy []
                 |> List.sort (fun (a, _) (b, _) -> String.compare a b);
               stage_bytes =
                 Hashtbl.fold (fun k v acc -> (k, !v) :: acc) a.acc_bytes []
                 |> List.sort (fun (a, _) (b, _) -> String.compare a b);
             })
    in
    { elapsed = Clock.now clock -. start_time; stages }
end

(* ----------------------------- raid xor ------------------------------ *)

(* The bytewise parity loop RAID-4 xored with, and the bytewise zero test
   the parity scrub used. *)
module Raid_xor = struct
  let xor_into dst src =
    for i = 0 to Bytes.length dst - 1 do
      Bytes.set dst i
        (Char.chr (Char.code (Bytes.get dst i) lxor Char.code (Bytes.get src i)))
    done

  let is_zero b =
    let exception Nonzero in
    try
      Bytes.iter (fun c -> if c <> '\000' then raise Nonzero) b;
      true
    with Nonzero -> false
end

(* ------------------------------ bitmap ------------------------------- *)

(* The byte-at-a-time set operations, over the persisted layout: [bits]
   are the bytes [Bitmap.write] emits after the length. *)
module Bitmap = struct
  type t = { bits : Bytes.t; length : int }

  let of_bitmap b =
    let w = Serde.writer () in
    Repro_util.Bitmap.write w b;
    let r = Serde.reader (Serde.contents w) in
    let length = Serde.read_u32 r in
    { bits = Bytes.of_string (Serde.read_fixed r ((length + 7) / 8)); length }

  let create length = { bits = Bytes.make ((length + 7) / 8) '\000'; length }

  let popcount_byte =
    let table = Array.make 256 0 in
    for i = 1 to 255 do
      table.(i) <- table.(i lsr 1) + (i land 1)
    done;
    fun c -> table.(Char.code c)

  let count t =
    let n = ref 0 in
    Bytes.iter (fun c -> n := !n + popcount_byte c) t.bits;
    !n

  let map2 op a b =
    if a.length <> b.length then invalid_arg "Bitmap: length mismatch";
    let r = create a.length in
    for i = 0 to Bytes.length a.bits - 1 do
      Bytes.set r.bits i
        (Char.chr (op (Char.code (Bytes.get a.bits i)) (Char.code (Bytes.get b.bits i))))
    done;
    r

  let union a b = map2 (fun x y -> x lor y) a b
  let inter a b = map2 (fun x y -> x land y) a b
  let diff a b = map2 (fun x y -> x land lnot y land 0xff) a b

  let union_into ~dst src =
    if dst.length <> src.length then invalid_arg "Bitmap: length mismatch";
    for i = 0 to Bytes.length dst.bits - 1 do
      Bytes.set dst.bits i
        (Char.chr (Char.code (Bytes.get dst.bits i) lor Char.code (Bytes.get src.bits i)))
    done

  let is_empty t =
    let exception Found in
    try
      Bytes.iter (fun c -> if c <> '\000' then raise Found) t.bits;
      true
    with Found -> false

  let iter_set f t =
    for byte = 0 to Bytes.length t.bits - 1 do
      let c = Char.code (Bytes.get t.bits byte) in
      if c <> 0 then
        for bit = 0 to 7 do
          if c land (1 lsl bit) <> 0 then f ((byte lsl 3) lor bit)
        done
    done
end

(* ----------------------------- blockmap ------------------------------ *)

(* The block-map file codec one bit at a time: 32 [Bitmap.get]s per vbn
   to build its word, 32 [Bitmap.assign]s to load it back. [planes] are
   the map's 32 planes of [nblocks] bits. *)
module Blockmap = struct
  module Bitmap = Repro_util.Bitmap

  let nplanes = 32
  let words_per_block = 4096 / 4

  let word planes vbn =
    let w = ref 0 in
    for p = 0 to nplanes - 1 do
      if Bitmap.get planes.(p) vbn then w := !w lor (1 lsl p)
    done;
    !w

  let encode_file_block planes ~nblocks lbn =
    let b = Bytes.make 4096 '\000' in
    let base = lbn * words_per_block in
    for i = 0 to words_per_block - 1 do
      let vbn = base + i in
      if vbn < nblocks then Bytes.set_int32_le b (i * 4) (Int32.of_int (word planes vbn))
    done;
    b

  let load_file_block planes ~nblocks lbn block =
    let base = lbn * words_per_block in
    for i = 0 to words_per_block - 1 do
      let vbn = base + i in
      if vbn < nblocks then begin
        let w = Int32.to_int (Bytes.get_int32_le block (i * 4)) land 0xffffffff in
        for p = 0 to nplanes - 1 do
          Bitmap.assign planes.(p) vbn (w land (1 lsl p) <> 0)
        done
      end
    done

  (* [Fs.free_blocks] as it was: ask every vbn's 32 planes whether any
     holds it. [bmap] is a map of [nblocks] vbns. *)
  let free_blocks bmap ~nblocks =
    let used = ref 0 in
    for vbn = 0 to nblocks - 1 do
      if not (Repro_wafl.Blockmap.is_free_block bmap vbn) then incr used
    done;
    nblocks - !used
end

(* ---------------------------- dir, inode ----------------------------- *)

(* The directory block codec as it was: decode the block into a fresh
   (name, ino) list, edit the list, and encode it through a writer into a
   new zeroed block. *)
module Dir = struct
  let block_size = 4096

  let entries block =
    let open Repro_util.Serde in
    let r = reader (Bytes.unsafe_to_string block) in
    let count = read_u16 r in
    List.init count (fun _ ->
        let ino = read_u32 r in
        let len = read_u8 r in
        let name = read_fixed r len in
        (name, ino))

  let find block name =
    List.assoc_opt name (entries block)

  let encode items =
    let open Repro_util.Serde in
    let w = writer ~initial_size:block_size () in
    write_u16 w (List.length items);
    List.iter
      (fun (name, ino) ->
        write_u32 w ino;
        write_u8 w (String.length name);
        write_fixed w name)
      items;
    if writer_length w > block_size then None
    else begin
      let b = Bytes.make block_size '\000' in
      Bytes.blit_string (contents w) 0 b 0 (writer_length w);
      Some b
    end

  let add block name ino =
    let len = String.length name in
    if len = 0 || len > Repro_wafl.Layout.max_name_len then invalid_arg "Dir.add: bad name";
    encode (entries block @ [ (name, ino) ])

  let remove block name =
    let items = entries block in
    if not (List.mem_assoc name items) then None
    else
      let items = List.filter (fun (n, _) -> not (String.equal n name)) items in
      encode items

  let replace block name ino =
    let items = entries block in
    if not (List.mem_assoc name items) then None
    else
      encode
        (List.map (fun (n, i) -> if String.equal n name then (n, ino) else (n, i)) items)
end

(* The inode slot as it was: the unpadded writer form copied into a fresh
   zeroed 256-byte buffer. *)
module Inode = struct
  module Layout = Repro_wafl.Layout

  let encode t =
    let open Repro_util.Serde in
    let w = writer ~initial_size:Layout.inode_size () in
    Repro_wafl.Inode.write w t;
    let body = contents w in
    assert (String.length body <= Layout.inode_size);
    let b = Bytes.make Layout.inode_size '\000' in
    Bytes.blit_string body 0 b 0 (String.length body);
    b
end

(* ------------------------------- prng -------------------------------- *)

(* splitmix64 with its state in a mutable boxed [int64] field, which
   allocated a fresh box on every draw. *)
module Prng = struct
  type t = { mutable state : int64 }

  let golden_gamma = 0x9e3779b97f4a7c15L

  let mix64 z =
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let create seed = { state = mix64 (Int64.of_int seed) }

  let int64 t =
    t.state <- Int64.add t.state golden_gamma;
    mix64 t.state

  let bit_range = 1 lsl 61
  let bits t = Int64.to_int (Int64.shift_right_logical (int64 t) 3)

  let int t bound =
    if bound <= 0 then invalid_arg "Prng.int";
    let limit = bit_range - (bit_range mod bound) in
    let rec draw () =
      let v = bits t in
      if v >= limit then draw () else v mod bound
    in
    draw ()

  let int_in t lo hi =
    if hi < lo then invalid_arg "Prng.int_in";
    lo + int t (hi - lo + 1)

  let float t bound = bound *. (Float.of_int (bits t) /. Float.of_int bit_range)
  let bool t = Int64.logand (int64 t) 1L = 1L

  let choose t a =
    if Array.length a = 0 then invalid_arg "Prng.choose";
    a.(int t (Array.length a))

  (* What synthetic content drew before [Prng.fill]: one [int t 256] per
     byte. *)
  let fill t b off len =
    for i = off to off + len - 1 do
      Bytes.set b i (Char.chr (int t 256))
    done
end

(* -------------------------- namei, lru ------------------------------- *)

(* The path walk as it was: split the path into a list of component
   strings, then look each up with a closure over the directory's blocks.
   The steps it is made of (one op charged per component, the blocks read
   in order through the buffer cache) are the file system's own. *)
module Namei = struct
  module Fs = Repro_wafl.Fs
  module Inode = Repro_wafl.Inode

  let err fmt = Format.kasprintf (fun s -> raise (Fs.Error s)) fmt

  let split_path path =
    if String.length path = 0 || path.[0] <> '/' then err "path %S is not absolute" path;
    String.split_on_char '/' path |> List.filter (fun c -> String.length c > 0)

  let dir_lookup t dir_ino name =
    let found = ref None in
    Fs.Private.dir_iter_blocks t dir_ino (fun _ b ->
        match Repro_wafl.Dir.find b name with
        | Some ino ->
          found := Some ino;
          true
        | None -> false);
    !found

  let namei t path =
    let rec walk ino = function
      | [] -> ino
      | comp :: rest ->
        Fs.Private.charge_op t 1;
        let inode = Fs.getattr_ino t ino in
        if inode.Inode.kind <> Inode.Directory then err "%S: not a directory" path;
        (match dir_lookup t ino comp with
        | Some next -> walk next rest
        | None -> err "%S: no such file or directory" path)
    in
    walk Repro_wafl.Layout.root_ino (split_path path)
end

(* The bounded LRU map as a list, most recently used first. *)
module Lru = struct
  type ('k, 'v) t = { capacity : int; mutable items : ('k * 'v) list }

  let create ~capacity = { capacity; items = [] }
  let length t = List.length t.items
  let mem t k = List.mem_assoc k t.items
  let peek t k = List.assoc_opt k t.items

  let find t k =
    match List.assoc_opt k t.items with
    | Some v ->
      t.items <- (k, v) :: List.remove_assoc k t.items;
      Some v
    | None -> None

  let remove t k = t.items <- List.remove_assoc k t.items

  let add t k v =
    t.items <- (k, v) :: List.remove_assoc k t.items;
    if List.length t.items > t.capacity then
      t.items <- List.filteri (fun i _ -> i < t.capacity) t.items
end

(* ------------------------- restore data path ------------------------- *)

(* Logical restore's run flush as it was: join the run's blocks with
   [String.concat] and write the join through [Fs.write], so every
   restored byte was copied once more before the file system copied it
   into its blocks. [Restore.apply_with] calls it in place of the
   copy-free writer; it returns the bytes it wrote where it used to add
   them to the restore's count itself. *)
module Restore_run = struct
  module Cost = Repro_sim.Cost
  module Fs = Repro_wafl.Fs
  module Spec = Repro_dump.Spec

  let flush_run cpu fs path start_lbn (blocks : string list) (_ : int) =
    match blocks with
    | [] -> 0
    | _ ->
      let data = String.concat "" (List.rev blocks) in
      Cost.charge cpu
        (Float.of_int (String.length data)
        *. Cost.f630.restore_write_per_byte);
      Fs.write fs path ~offset:(start_lbn * Spec.data_block_size) data;
      String.length data
end

(* ------------------------ physical image stream ------------------------ *)

(* The physical image stream as it was. The dump encoded each extent
   into one string; the restore read it back with one [input (n * 4096)],
   cut it into blocks again with [String.sub] ([split_blocks]), joined
   the buffered extents with [List.concat] and handed the list to a
   writer that sorted it ([write_batch], which the CP and RVOL1 load
   called too). [apply] is the restore loop around them. *)
module Image_stream = struct
  module Crc32 = Repro_util.Crc32
  module Cost = Repro_sim.Cost
  module Raid = Repro_block.Raid
  module Volume = Repro_block.Volume
  module Format = Repro_image.Format
  module Layout = Repro_wafl.Layout
  module Tapeio = Repro_tape.Tapeio

  let block_size = 4096
  let max_extent_blocks = 64
  let tag_extent = 1
  let tag_trailer = 2
  let extent_header = 11

  let encode_extent ~vbn blocks =
    let n = Array.length blocks in
    if
      n = 0 || n > max_extent_blocks || vbn < 0 || vbn > 0xffffffff
      || Array.exists (fun b -> String.length b <> block_size) blocks
    then invalid_arg "Format.encode_extent";
    let r = Bytes.create (extent_header + (n * block_size)) in
    Bytes.set_uint8 r 0 tag_extent;
    Bytes.set_int32_le r 1 (Int32.of_int vbn);
    Bytes.set_uint16_le r 5 n;
    let crc = ref Crc32.init in
    Array.iteri
      (fun i b ->
        let off = extent_header + (i * block_size) in
        Bytes.blit_string b 0 r off block_size;
        crc := Crc32.update_substring !crc (Bytes.unsafe_to_string r) off block_size)
      blocks;
    Bytes.set_int32_le r 7 (Int32.of_int (Crc32.finish !crc));
    Bytes.unsafe_to_string r

  type record = Extent of { vbn : int; data : string } | Trailer of { fsinfo : string }

  let read_record input =
    let open Serde in
    let byte s = Char.code s.[0] in
    let tag = byte (input 1) in
    if tag = tag_extent then begin
      let hdr = input 10 in
      let r = reader hdr in
      let vbn = read_u32 r in
      let n = read_u16 r in
      let crc = read_u32 r in
      if n = 0 || n > max_extent_blocks then
        raise (Corrupt (Printf.sprintf "extent at vbn %d has bad count %d" vbn n));
      let data = input (n * block_size) in
      if Crc32.string data <> crc then
        raise (Corrupt (Printf.sprintf "extent at vbn %d fails checksum" vbn));
      Extent { vbn; data }
    end
    else if tag = tag_trailer then begin
      let r = reader (input 4) in
      let crc = read_u32 r in
      let fsinfo = input block_size in
      if Crc32.string fsinfo <> crc then raise (Corrupt "trailer fsinfo fails checksum");
      Trailer { fsinfo }
    end
    else raise (Corrupt (Printf.sprintf "unknown image record tag %d" tag))

  let split_blocks vbn data =
    let n = String.length data / block_size in
    List.init n (fun i -> (vbn + i, String.sub data (i * block_size) block_size))

  (* [Volume.locate], from the volume's RAID groups. *)
  let locate t vbn =
    let groups = Volume.raid_groups t in
    let group_data = Raid.data_blocks groups.(0) in
    if vbn < 0 || vbn >= Volume.size_blocks t then
      invalid_arg
        (Printf.sprintf "Volume %s: vbn %d out of range [0,%d)" (Volume.label t) vbn
           (Volume.size_blocks t));
    (groups.(vbn / group_data), vbn mod group_data)

  let size_blocks = Volume.size_blocks

  (* Group sorted (vbn, block) pairs into maximal runs of consecutive vbns,
     then write any run segment that covers a whole RAID stripe with one
     write_stripe call. *)
  let write_batch t blocks =
    let sorted = List.sort (fun (a, _) (b, _) -> compare a b) blocks in
    let arr = Array.of_list sorted in
    let n = Array.length arr in
    let i = ref 0 in
    while !i < n do
      let start_vbn, _ = arr.(!i) in
      let g, start_gbn = locate t start_vbn in
      let width = Raid.data_disks g in
      (* Length of the consecutive run starting at !i that stays in group g. *)
      let run_len = ref 1 in
      let continue = ref true in
      while !continue && !i + !run_len < n do
        let vbn, _ = arr.(!i + !run_len) in
        let g', _ = if vbn < size_blocks t then locate t vbn else (g, 0) in
        if vbn = start_vbn + !run_len && g' == g then incr run_len else continue := false
      done;
      (* Emit the run: full stripes via write_stripe, edges one by one. *)
      let emitted = ref 0 in
      while !emitted < !run_len do
        let gbn = start_gbn + !emitted in
        let left = !run_len - !emitted in
        if gbn mod width = 0 && left >= width then begin
          let stripe = gbn / width in
          let data = Array.init width (fun k -> snd arr.(!i + !emitted + k)) in
          Raid.write_stripe g stripe data;
          emitted := !emitted + width
        end
        else begin
          Raid.write g gbn (snd arr.(!i + !emitted));
          incr emitted
        end
      done;
      i := !i + !run_len
    done

  (* Image_restore.apply's block loop, header and trailer as they were,
     with its chain check's read of the target's fsinfo (a refusal is
     [Failure]): [(blocks, bytes)] restored. *)
  let apply ?cpu ~volume src =
    let input n = Tapeio.input src n in
    let header = Format.read_header input in
    (match header.Format.kind with
    | Format.Full -> ()
    | Format.Incremental -> (
      match Repro_wafl.Fsinfo.decode (Volume.read volume Layout.fsinfo_vbn_primary) with
      | Some info
        when List.exists
               (fun (s : Repro_wafl.Fsinfo.snap_entry) ->
                 String.equal s.snap_name header.Format.base_name)
               info.Repro_wafl.Fsinfo.snaps ->
        ()
      | _ -> failwith "incremental base snapshot not present on target volume"));
    let blocks = ref 0 in
    let bytes = ref 0 in
    let buffered = ref [] in
    let buffered_count = ref 0 in
    let flush () =
      if !buffered <> [] then begin
        write_batch volume (List.concat (List.rev !buffered));
        buffered := [];
        buffered_count := 0
      end
    in
    let continue = ref true in
    while !continue do
      match read_record input with
      | Extent { vbn; data } ->
        Cost.charge cpu (Float.of_int (String.length data) *. Cost.f630.image_per_byte);
        Cost.charge cpu
          (Float.of_int (String.length data / block_size) *. Cost.f630.image_per_block);
        buffered := split_blocks vbn data :: !buffered;
        buffered_count := !buffered_count + (String.length data / block_size);
        if !buffered_count >= 2048 then flush ();
        blocks := !blocks + (String.length data / block_size);
        bytes := !bytes + String.length data
      | Trailer { fsinfo } ->
        flush ();
        Volume.write volume Layout.fsinfo_vbn_primary fsinfo;
        Volume.write volume Layout.fsinfo_vbn_backup fsinfo;
        continue := false
    done;
    (!blocks, !bytes)
end

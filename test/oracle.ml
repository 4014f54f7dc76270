(* Reference oracles for the library's optimized hot paths.

   Each module below is the original, straightforward implementation of
   an algorithm the library now runs in optimized form — the generic
   comparator heap the event engine used to dispatch on, the bytewise
   CRC-32 loop, the writer-per-frame wire encode, the Buffer record/MTU
   chunker, and the in-order span-attribute append. They live here, not
   in lib/, so the library keeps exactly one path per module; the
   properties in test_util, test_sim, test_tape, test_net and test_obs
   assert the library computes the same function as its oracle. Like
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

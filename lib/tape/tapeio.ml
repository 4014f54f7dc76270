let default_record_bytes = 64 * 1024

(* Self-profiling: [output]/[input] are the per-record block paths both
   the logical dump and the physical image stream through. *)
let p_output = Repro_prof.Prof.probe "tape.output"
let p_input = Repro_prof.Prof.probe "tape.input"
let c_stream_bytes = Repro_prof.Prof.counter "tape.bytes_streamed"

type backend = { be_put : string -> unit; be_mark : unit -> unit }

(* Records are cut out of one reused stage (Repro_util.Stage); the
   backend's put is the stage's emit, bound once per sink. *)
type sink = { be : backend; stage : Repro_util.Stage.t; mutable written : int }

(* Write one physical record, changing cartridges on end-of-tape. *)
let rec put_record lib s =
  try Tape.write_record (Library.drive lib) s
  with Tape.End_of_tape ->
    if Library.load_next lib then put_record lib s else raise Tape.End_of_tape

let library_backend lib =
  (match Tape.loaded (Library.drive lib) with
  | None -> if not (Library.load_next lib) then raise Tape.End_of_tape
  | Some _ -> ());
  {
    be_put = (fun s -> put_record lib s);
    be_mark = (fun () -> Tape.write_filemark (Library.drive lib));
  }

let sink_to ?(record_bytes = default_record_bytes) be =
  {
    be;
    stage = Repro_util.Stage.create ~piece:record_bytes ~emit:be.be_put;
    written = 0;
  }

let sink ?record_bytes lib = sink_to ?record_bytes (library_backend lib)

let output t s =
  let tok = Repro_prof.Prof.enter p_output in
  t.written <- t.written + String.length s;
  Repro_util.Stage.add t.stage s;
  Repro_prof.Prof.leave tok;
  if tok > 0 then Repro_prof.Prof.add c_stream_bytes (String.length s)

let close_sink t =
  Repro_util.Stage.flush t.stage;
  t.be.be_mark ();
  Repro_obs.Obs.hist "tape.stream_bytes" t.written

let sink_bytes_written t = t.written

type source = {
  next_rec : unit -> string option;
  mutable cur : string;
  mutable pos : int;
  mutable finished : bool;
}

(* A real drive retries soft read errors internally before surfacing
   anything; model that with a small bounded in-place retry whose delay is
   charged to the drive. Hard media errors are unrecoverable: the drive
   has already positioned past the bad record, so the stream continues
   with those bytes missing — the format layers (CRC resynchronization in
   logical restore, record checksums in image restore) see the damage. *)
let read_retry_attempts = 8
let soft_retry_delay_s = 0.5

let read_record_resilient lib =
  let d = Library.drive lib in
  let rec go attempt =
    try Tape.read_record d
    with Repro_fault.Fault.Transient _ when attempt < read_retry_attempts ->
      ignore
        (Repro_fault.Fault.note_retry ~device:(Tape.label d) ~what:"tape read"
           ~attempt ~delay_s:soft_retry_delay_s);
      Tape.charge_delay d soft_retry_delay_s;
      go (attempt + 1)
  in
  go 1

let records ?(skip_streams = 0) lib =
  Library.rewind_to_start lib;
  (* Space past [skip_streams] filemarks, changing cartridges as needed. *)
  let remaining = ref skip_streams in
  while !remaining > 0 do
    match Tape.read_record (Library.drive lib) with
    | Tape.Filemark -> decr remaining
    | Tape.Record _ -> ()
    | Tape.End_of_data ->
      if not (Library.advance_for_read lib) then raise End_of_file
  done;
  let finished = ref false in
  let rec next () =
    if !finished then None
    else
      match read_record_resilient lib with
      | Tape.Record s -> Some s
      | Tape.Filemark ->
        finished := true;
        None
      | Tape.End_of_data ->
        if Library.advance_for_read lib then next ()
        else begin
          finished := true;
          None
        end
      | exception Repro_fault.Fault.Media_error { device; addr } ->
        Repro_fault.Fault.note_skip ~device ~addr ~what:"unreadable record lost";
        next ()
  in
  next

let source_of next_rec = { next_rec; cur = ""; pos = 0; finished = false }

let source ?skip_streams lib = source_of (records ?skip_streams lib)

let refill t =
  if not t.finished && t.pos >= String.length t.cur then begin
    match t.next_rec () with
    | Some s ->
      t.cur <- s;
      t.pos <- 0
    | None -> t.finished <- true
  end

(* The request is filled into one buffer that becomes the result, so each
   byte is copied once on its way out of a record. *)
let input_inner t n =
  let out = Bytes.create n in
  let filled = ref 0 in
  while !filled < n do
    refill t;
    if t.finished then raise End_of_file;
    let avail = String.length t.cur - t.pos in
    let take = Stdlib.min avail (n - !filled) in
    Bytes.blit_string t.cur t.pos out !filled take;
    t.pos <- t.pos + take;
    filled := !filled + take
  done;
  Bytes.unsafe_to_string out

(* End_of_file is ordinary control flow for callers, so the probe frame
   must be closed on that path too. *)
let input t n =
  if n < 0 then invalid_arg "Tapeio.input";
  let tok = Repro_prof.Prof.enter p_input in
  match input_inner t n with
  | s ->
    Repro_prof.Prof.leave tok;
    s
  | exception e ->
    Repro_prof.Prof.leave tok;
    raise e

let input_all t =
  let buf = Buffer.create 4096 in
  let continue = ref true in
  while !continue do
    refill t;
    if t.finished then continue := false
    else begin
      Buffer.add_substring buf t.cur t.pos (String.length t.cur - t.pos);
      t.pos <- String.length t.cur
    end
  done;
  Buffer.contents buf

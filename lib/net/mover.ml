module Tapeio = Repro_tape.Tapeio

type shipment = { mutable sh_xfer : Session.xfer option }

let xfer sh = sh.sh_xfer

(* Wire shape: u32-LE record length, record bytes; the reserved length
   below is the filemark. *)
let mark_len = 0xFFFF_FFFF

let record_header n =
  let b = Bytes.create 4 in
  Bytes.set_int32_le b 0 (Int32.of_int n);
  Bytes.unsafe_to_string b

let mark = record_header mark_len

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

let put stream r =
  Session.write stream (record_header (String.length r));
  Session.write stream r

let ship_to ~label ~session (far : Tapeio.backend) =
  let stream =
    Session.open_stream ~label session
      ~deliver:
        (reassembler ~on_record:far.Tapeio.be_put ~on_mark:far.Tapeio.be_mark)
  in
  let sh = { sh_xfer = None } in
  let wire =
    {
      Tapeio.be_put = put stream;
      be_mark =
        (fun () ->
          Session.write stream mark;
          sh.sh_xfer <- Some (Session.close_stream stream));
    }
  in
  (sh, Tapeio.sink_to wire)

let remote_source ?skip_streams ~session lib =
  let next = Tapeio.records ?skip_streams lib in
  let recs = Queue.create () in
  let marked = ref false in
  let stream =
    Session.open_stream ~label:"mover.source" session
      ~deliver:
        (reassembler
           ~on_record:(fun r -> Queue.push r recs)
           ~on_mark:(fun () -> marked := true))
  in
  (* The server side reads the whole stream off tape and ships it; the
     transport pumps the simulation as the window opens and closes. *)
  let rec pump () =
    match next () with
    | Some r ->
      put stream r;
      pump ()
    | None -> Session.write stream mark
  in
  pump ();
  let x = Session.close_stream stream in
  if not !marked then failwith "Mover.remote_source: truncated shipment";
  ({ sh_xfer = Some x }, Tapeio.source_of (fun () -> Queue.take_opt recs))

module Session = Repro_net.Session
module Tapeio = Repro_tape.Tapeio

type shipment = { mutable sh_xfer : Session.xfer option }

let xfer sh = sh.sh_xfer

(* Wire shape: u32-LE record length, record bytes; the reserved length
   below is the filemark. *)
let mark_len = 0xFFFF_FFFF

let len_prefix n =
  let b = Bytes.create 4 in
  Bytes.set_int32_le b 0 (Int32.of_int n);
  Bytes.unsafe_to_string b

let mark_prefix = len_prefix mark_len

(* Reassemble records from MTU-sized delivery chunks. [pending] holds at
   most one partial item (a record is bounded by the blocking factor), so
   the carry-over concatenation stays cheap. *)
type reassembly = { mutable pending : string }

let feed ps ~on_record ~on_mark chunk =
  let data = if ps.pending = "" then chunk else ps.pending ^ chunk in
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
  ps.pending <- String.sub data !pos (n - !pos)

let remote_sink ~session lib =
  let be = Tapeio.library_backend lib in
  let ps = { pending = "" } in
  let stream =
    Session.open_stream ~label:"mover.sink" session ~deliver:(fun chunk ->
        feed ps ~on_record:be.Tapeio.be_put ~on_mark:be.Tapeio.be_mark chunk)
  in
  let sh = { sh_xfer = None } in
  let wire =
    {
      Tapeio.be_put =
        (fun r ->
          Session.write stream (len_prefix (String.length r));
          Session.write stream r);
      be_mark =
        (fun () ->
          Session.write stream mark_prefix;
          sh.sh_xfer <- Some (Session.close_stream stream));
    }
  in
  (sh, Tapeio.sink_to wire)

let remote_source ?skip_streams ~session lib =
  let next = Tapeio.records ?skip_streams lib in
  let recs = Queue.create () in
  let ps = { pending = "" } in
  let marked = ref false in
  let stream =
    Session.open_stream ~label:"mover.source" session ~deliver:(fun chunk ->
        feed ps chunk
          ~on_record:(fun r -> Queue.push r recs)
          ~on_mark:(fun () -> marked := true))
  in
  (* The server side reads the whole stream off tape and ships it; the
     transport pumps the simulation as the window opens and closes. *)
  let rec pump () =
    match next () with
    | Some r ->
      Session.write stream (len_prefix (String.length r));
      Session.write stream r;
      pump ()
    | None -> Session.write stream mark_prefix
  in
  pump ();
  let x = Session.close_stream stream in
  if not !marked then failwith "Mover.remote_source: truncated shipment";
  ({ sh_xfer = Some x }, Tapeio.source_of (fun () -> Queue.take_opt recs))

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

(* Reassemble records from MTU-sized delivery slices, in one pass over
   each slice. A record whole inside a slice is cut out with one
   [String.sub]; a record spanning slices is filled into its own buffer,
   which becomes the record without a further copy; a header cut across
   slices collects in a 4-byte scratch. The record buffer grows with the
   bytes that actually arrive (never past twice them plus one slice), not
   with the wire's length field, so an inflated header cannot make it
   allocate the claimed size up front. *)
type reassembly = {
  hdr : Bytes.t;  (** a header cut across slices *)
  mutable hdr_fill : int;
  mutable body : Bytes.t;  (** the spanning record, [want] bytes once whole *)
  mutable want : int;  (** its length; [-1] between records *)
  mutable got : int;
}

let reassembler ~on_record ~on_mark =
  let r = { hdr = Bytes.create 4; hdr_fill = 0; body = Bytes.empty; want = -1; got = 0 } in
  fun s off len ->
    let stop = off + len in
    let pos = ref off in
    (* The item a length field announces, its bytes starting at [!pos]. *)
    let start n =
      if n = mark_len then on_mark ()
      else if stop - !pos >= n then begin
        let p = !pos in
        pos := p + n;
        on_record (String.sub s p n)
      end
      else r.want <- n
    in
    while !pos < stop do
      if r.want >= 0 then begin
        let take = Stdlib.min (stop - !pos) (r.want - r.got) in
        let need = r.got + take in
        if need > Bytes.length r.body then begin
          let cap = Stdlib.min r.want (Stdlib.max (2 * Bytes.length r.body) (need + len)) in
          let b = Bytes.create cap in
          Bytes.blit r.body 0 b 0 r.got;
          r.body <- b
        end;
        Bytes.blit_string s !pos r.body r.got take;
        pos := !pos + take;
        r.got <- need;
        if need = r.want then begin
          let record = Bytes.unsafe_to_string r.body in
          r.body <- Bytes.empty;
          r.want <- -1;
          r.got <- 0;
          on_record record
        end
      end
      else if r.hdr_fill > 0 || stop - !pos < 4 then begin
        let take = Stdlib.min (stop - !pos) (4 - r.hdr_fill) in
        Bytes.blit_string s !pos r.hdr r.hdr_fill take;
        pos := !pos + take;
        r.hdr_fill <- r.hdr_fill + take;
        if r.hdr_fill = 4 then begin
          r.hdr_fill <- 0;
          start (Int32.to_int (Bytes.get_int32_le r.hdr 0) land mark_len)
        end
      end
      else begin
        let n = Int32.to_int (String.get_int32_le s !pos) land mark_len in
        pos := !pos + 4;
        start n
      end
    done

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

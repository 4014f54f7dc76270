type t = {
  label : string;
  tape : Tape.t;
  mutable blanks : Tape.media list;
  mutable written : Tape.media array; (* cartridges in write order *)
  mutable read_pos : int; (* index into [written] during restore *)
  mutable changes : int;
}

let media_change_seconds = 120.0

let create ?params ?(slots = 8) ~label () =
  if slots <= 0 then invalid_arg "Library.create";
  let blanks =
    List.init slots (fun i ->
        Tape.blank_media ~label:(Printf.sprintf "%s.t%02d" label i))
  in
  { label; tape = Tape.create ?params ~label (); blanks; written = [||]; read_pos = 0; changes = 0 }

let drive t = t.tape

let swap_in t m =
  (match Tape.loaded t.tape with Some _ -> ignore (Tape.unload t.tape) | None -> ());
  t.changes <- t.changes + 1;
  Tape.load t.tape m

let load_next t =
  match t.blanks with
  | [] -> false
  | m :: rest ->
    t.blanks <- rest;
    t.written <- Array.append t.written [| m |];
    swap_in t m;
    true

let used_media t = Array.to_list t.written

(* Position the stacker to continue appending: if the drive is empty but
   cartridges have been written (a stacker reloaded from cold storage, or
   mid-recovery), reload the last written cartridge and locate end of
   data. With a cartridge already loaded, writes append where they are. *)
let ensure_appendable t =
  match Tape.loaded t.tape with
  | Some _ -> ()
  | None ->
    let n = Array.length t.written in
    if n > 0 then begin
      swap_in t t.written.(n - 1);
      Tape.seek_end t.tape
    end

(* The last written cartridge ends in a data record: a stream was cut off
   before its filemark. *)
let dangling_stream t =
  let n = Array.length t.written in
  n > 0 && Tape.media_ends_with_record t.written.(n - 1)

let rewind_to_start t =
  if Array.length t.written = 0 then
    invalid_arg (Printf.sprintf "Library %s: nothing written" t.label);
  t.read_pos <- 0;
  swap_in t t.written.(0);
  Tape.rewind t.tape

let advance_for_read t =
  if t.read_pos + 1 >= Array.length t.written then false
  else begin
    t.read_pos <- t.read_pos + 1;
    swap_in t t.written.(t.read_pos);
    Tape.rewind t.tape;
    true
  end

let change_time_total t = Float.of_int t.changes *. media_change_seconds

let save w t =
  let open Repro_util.Serde in
  write_fixed w "RLIB1";
  write_string w t.label;
  let p = Tape.params_of t.tape in
  write_u64 w (Int64.bits_of_float p.Tape.native_mb_s);
  write_u64 w (Int64.bits_of_float p.Tape.compression);
  write_int w p.Tape.capacity_bytes;
  write_u16 w (List.length t.blanks);
  write_u16 w (Array.length t.written);
  Array.iter (fun m -> Tape.write_media w m) t.written

let load r =
  let open Repro_util.Serde in
  expect_magic r "RLIB1";
  let label = read_string r in
  let native_mb_s = Int64.float_of_bits (read_u64 r) in
  let compression = Int64.float_of_bits (read_u64 r) in
  let capacity_bytes = read_int r in
  let params = Tape.params ~native_mb_s ~compression ~capacity_bytes () in
  let nblanks = read_u16 r in
  let nwritten = read_u16 r in
  let written = Array.init nwritten (fun _ -> Tape.read_media r) in
  let t = create ~params ~slots:1 ~label () in
  (* blank labels continue after the written cartridges *)
  t.blanks <-
    List.init nblanks (fun i ->
        Tape.blank_media ~label:(Printf.sprintf "%s.t%02d" label (nwritten + i)));
  t.written <- written;
  t.read_pos <- 0;
  t

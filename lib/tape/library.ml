type t = {
  label : string;
  tape : Tape.t;
  mutable blanks : int; (* blank cartridges left in the magazine *)
  mutable written : Tape.media array; (* cartridges in write order *)
  mutable read_pos : int; (* index into [written] during restore *)
  mutable changes : int;
}

let media_change_seconds = 120.0

let create ?params ?(slots = 8) ~label () =
  if slots <= 0 then invalid_arg "Library.create";
  let tape = Tape.create ?params ~label () in
  { label; tape; blanks = slots; written = [||]; read_pos = 0; changes = 0 }

let drive t = t.tape

let swap_in t m =
  (match Tape.loaded t.tape with Some _ -> ignore (Tape.unload t.tape) | None -> ());
  t.changes <- t.changes + 1;
  Tape.load t.tape m

(* Cartridges are labelled in magazine order: the next blank is number
   [Array.length t.written]. *)
let load_next t =
  if t.blanks = 0 then false
  else begin
    let m =
      Tape.blank_media
        ~label:(Printf.sprintf "%s.t%02d" t.label (Array.length t.written))
    in
    t.blanks <- t.blanks - 1;
    t.written <- Array.append t.written [| m |];
    swap_in t m;
    true
  end

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

let p_save = Repro_prof.Prof.probe "tape.save"

let save w t =
  Repro_prof.Prof.with_probe p_save @@ fun () ->
  let open Repro_util.Serde in
  write_fixed w "RLIB1";
  write_string w t.label;
  let p = Tape.params_of t.tape in
  write_float w p.Tape.native_mb_s;
  write_float w p.Tape.compression;
  write_int w p.Tape.capacity_bytes;
  write_u16 w t.blanks;
  write_array U16 Tape.write_media w t.written

let load r =
  let open Repro_util.Serde in
  expect_magic r "RLIB1";
  let label = read_string r in
  let native_mb_s = read_float r in
  let compression = read_float r in
  let capacity_bytes = read_int r in
  if not (Float.is_finite native_mb_s && Float.is_finite compression) then
    raise (Corrupt "RLIB1: drive parameter not finite");
  let params =
    try Tape.params ~native_mb_s ~compression ~capacity_bytes ()
    with Invalid_argument _ -> raise (Corrupt "RLIB1: drive parameter not positive")
  in
  let blanks = read_u16 r in
  let written = read_array U16 Tape.read_media r in
  { (create ~params ~label ()) with blanks; written }

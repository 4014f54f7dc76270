module Serde = Repro_util.Serde
module Fs = Repro_wafl.Fs
module Inode = Repro_wafl.Inode
module Tapeio = Repro_tape.Tapeio

type entry = {
  e_path : string;
  e_ino : int;
  e_nlink : int;
  e_kind : [ `File | `Dir | `Symlink ];
  e_size : int;
  e_perms : int;
  e_mtime : float;
}

type create_result = { entries_written : int; bytes_written : int }
type extract_result = { entries_extracted : int; links_made : int; bytes_restored : int }

let magic = "070707"
let trailer_name = "TRAILER!!!"

(* mode bits: 040000 directory, 0100000 regular, 0120000 symlink *)
let mode_of ~kind ~perms =
  (match kind with `Dir -> 0o040000 | `File -> 0o100000 | `Symlink -> 0o120000)
  lor (perms land 0o7777)

let octal width v =
  let s = Printf.sprintf "%0*o" width (Stdlib.max 0 v) in
  if String.length s > width then String.sub s (String.length s - width) width else s

let encode_header e =
  String.concat ""
    [
      magic;
      octal 6 1 (* dev *);
      octal 6 (e.e_ino land 0o777777);
      octal 6 (mode_of ~kind:e.e_kind ~perms:e.e_perms);
      octal 6 0 (* uid *);
      octal 6 0 (* gid *);
      octal 6 e.e_nlink;
      octal 6 0 (* rdev *);
      octal 11 (int_of_float e.e_mtime land 0o77777777777);
      octal 6 (String.length e.e_path + 1);
      octal 11 (if e.e_kind = `Dir then 0 else e.e_size);
      e.e_path;
      "\000";
    ]

let read_octal s off len =
  let raw = String.sub s off len in
  try int_of_string ("0o" ^ raw)
  with Failure _ -> raise (Serde.Corrupt ("cpio: bad octal field " ^ raw))

let read_entry input =
  let h = input 76 in
  if String.sub h 0 6 <> magic then raise (Serde.Corrupt "cpio: bad magic");
  let ino = read_octal h 12 6 in
  let mode = read_octal h 18 6 in
  let nlink = read_octal h 36 6 in
  let mtime = Float.of_int (read_octal h 48 11) in
  let namesize = read_octal h 59 6 in
  let filesize = read_octal h 65 11 in
  let name_raw = input namesize in
  let name = String.sub name_raw 0 (namesize - 1) in
  let e =
    {
      e_path = name;
      e_ino = ino;
      e_nlink = nlink;
      e_kind =
        (match mode land 0o170000 with
        | 0o040000 -> `Dir
        | 0o120000 -> `Symlink
        | _ -> `File);
      e_size = filesize;
      e_perms = mode land 0o7777;
      e_mtime = mtime;
    }
  in
  let data = if filesize > 0 then input filesize else "" in
  (e, data)

let create ?newer ~view ~subtree ~sink () =
  let root =
    match Fs.View.lookup view subtree with
    | Some ino when (Fs.View.getattr view ino).Inode.kind = Inode.Directory -> ino
    | Some _ -> raise (Fs.Error (subtree ^ ": not a directory"))
    | None -> raise (Fs.Error (subtree ^ ": no such directory"))
  in
  let included (attr : Inode.t) =
    match newer with None -> true | Some t -> attr.Inode.mtime > t
  in
  let entries = ref 0 in
  let start = Tapeio.sink_bytes_written sink in
  let rec walk ino rel =
    List.iter
      (fun (name, child) ->
        let crel = if rel = "" then name else rel ^ "/" ^ name in
        let attr = Fs.View.getattr view child in
        match attr.Inode.kind with
        | Inode.Directory ->
          if included attr then begin
            Tapeio.output sink
              (encode_header
                 {
                   e_path = crel;
                   e_ino = child;
                   e_nlink = attr.Inode.nlink;
                   e_kind = `Dir;
                   e_size = 0;
                   e_perms = attr.Inode.perms;
                   e_mtime = attr.Inode.mtime;
                 });
            incr entries
          end;
          walk child crel
        | Inode.Regular | Inode.Symlink ->
          if included attr then begin
            Tapeio.output sink
              (encode_header
                 {
                   e_path = crel;
                   e_ino = child;
                   e_nlink = attr.Inode.nlink;
                   e_kind =
                     (if attr.Inode.kind = Inode.Symlink then `Symlink else `File);
                   e_size = attr.Inode.size;
                   e_perms = attr.Inode.perms;
                   e_mtime = attr.Inode.mtime;
                 });
            (* odc carries the data (or link target) with every name *)
            if attr.Inode.size > 0 then
              Tapeio.output sink
                (Fs.View.read view child ~offset:0 ~len:attr.Inode.size);
            incr entries
          end
        | Inode.Free -> ())
      (List.sort compare (Fs.View.readdir view ino))
  in
  walk root "";
  Tapeio.output sink
    (encode_header
       {
         e_path = trailer_name;
         e_ino = 0;
         e_nlink = 1;
         e_kind = `File;
         e_size = 0;
         e_perms = 0;
         e_mtime = 0.0;
       });
  Tapeio.close_sink sink;
  { entries_written = !entries; bytes_written = Tapeio.sink_bytes_written sink - start }

let iter_entries src f =
  let input n = Tapeio.input src n in
  let continue = ref true in
  while !continue do
    let e, data = read_entry input in
    if String.equal e.e_path trailer_name then continue := false else f e data
  done

let extract ~fs ~target src =
  Fs.mkdir_p fs target;
  let count = ref 0 in
  let links = ref 0 in
  let bytes = ref 0 in
  (* archive ino -> first extracted path, for hard-link reconstruction *)
  let seen : (int, string) Hashtbl.t = Hashtbl.create 64 in
  iter_entries src (fun e data ->
      let path = if e.e_path = "" then target else target ^ "/" ^ e.e_path in
      incr count;
      if e.e_kind = `Dir then begin
        if Fs.lookup fs path = None then begin
          Fs.mkdir_parents fs path;
          ignore (Fs.mkdir fs path ~perms:e.e_perms)
        end
        else Fs.set_perms fs path ~perms:e.e_perms
      end
      else if e.e_kind = `Symlink then begin
        Fs.mkdir_parents fs path;
        if Fs.lookup fs path <> None then Fs.unlink fs path;
        Fs.symlink fs ~target:data path
      end
      else begin
        Fs.mkdir_parents fs path;
        (match Hashtbl.find_opt seen e.e_ino with
        | Some first when e.e_nlink > 1 && Fs.lookup fs first <> None ->
          if Fs.lookup fs path <> None then Fs.unlink fs path;
          Fs.link fs first path;
          incr links
        | Some _ | None ->
          if Fs.lookup fs path = None then ignore (Fs.create fs path ~perms:e.e_perms)
          else Fs.set_perms fs path ~perms:e.e_perms;
          Fs.truncate fs path ~size:0;
          if String.length data > 0 then Fs.write fs path ~offset:0 data;
          bytes := !bytes + String.length data;
          Fs.set_times fs path ~mtime:e.e_mtime;
          Hashtbl.replace seen e.e_ino path)
      end);
  Fs.cp fs;
  { entries_extracted = !count; links_made = !links; bytes_restored = !bytes }

let list src =
  let acc = ref [] in
  iter_entries src (fun e _ -> acc := e :: !acc);
  List.rev !acc

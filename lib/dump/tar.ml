module Serde = Repro_util.Serde
module Fs = Repro_wafl.Fs
module Inode = Repro_wafl.Inode
module Tapeio = Repro_tape.Tapeio

type entry = {
  e_path : string;
  e_is_dir : bool;
  e_link : string;  (* symlink target; "" for other kinds *)
  e_size : int;
  e_perms : int;
  e_mtime : float;
}

type create_result = { entries_written : int; bytes_written : int }
type extract_result = { entries_extracted : int; bytes_restored : int }

let block = 512

(* ------------------------------------------------------------------ *)
(* ustar header codec                                                  *)

let put_string b off len s =
  let n = Stdlib.min (String.length s) len in
  Bytes.blit_string s 0 b off n

let put_octal b off len v =
  (* len-1 octal digits, NUL terminated, zero padded — the classic form *)
  let s = Printf.sprintf "%0*o" (len - 1) v in
  let s =
    if String.length s > len - 1 then String.sub s (String.length s - len + 1) (len - 1)
    else s
  in
  put_string b off (len - 1) s

let header_checksum b =
  (* checksum computed with the chksum field treated as spaces *)
  let total = ref 0 in
  for i = 0 to block - 1 do
    let c = if i >= 148 && i < 156 then ' ' else Bytes.get b i in
    total := !total + Char.code c
  done;
  !total

(* Split a long path into the ustar (prefix, name) pair. *)
let split_name path =
  if String.length path <= 100 then ("", path)
  else begin
    (* split at a '/' so that name <= 100 and prefix <= 155 *)
    let n = String.length path in
    let rec find i =
      if i <= 0 then None
      else if path.[i] = '/' && n - i - 1 <= 100 && i <= 155 then Some i
      else find (i - 1)
    in
    match find (n - 1) with
    | Some i -> (String.sub path 0 i, String.sub path (i + 1) (n - i - 1))
    | None -> invalid_arg ("Tar: path too long: " ^ path)
  end

let encode_header ?(link = "") ~path ~is_dir ~size ~perms ~mtime () =
  let b = Bytes.make block '\000' in
  let prefix, name = split_name (if is_dir then path ^ "/" else path) in
  put_string b 0 100 name;
  put_octal b 100 8 perms;
  put_octal b 108 8 0 (* uid *);
  put_octal b 116 8 0 (* gid *);
  (* size: 12-char octal; symlinks carry their target in linkname, size 0 *)
  put_octal b 124 12 (if is_dir || link <> "" then 0 else size);
  put_octal b 136 12 (int_of_float mtime land 0o77777777777);
  Bytes.set b 156 (if is_dir then '5' else if link <> "" then '2' else '0');
  put_string b 157 100 link;
  put_string b 257 6 "ustar";
  put_string b 263 2 "00";
  put_string b 345 155 prefix;
  put_octal b 148 8 (header_checksum b);
  Bytes.set b 155 ' ';
  Bytes.to_string b

let get_string s off len =
  let raw = String.sub s off len in
  match String.index_opt raw '\000' with
  | Some i -> String.sub raw 0 i
  | None -> raw

let get_octal s off len =
  let raw = String.trim (get_string s off len) in
  if raw = "" then 0
  else
    try int_of_string ("0o" ^ raw)
    with Failure _ -> raise (Serde.Corrupt ("tar: bad octal field " ^ raw))

let decode_header s =
  if String.length s <> block then raise (Serde.Corrupt "tar: short header");
  let all_zero = String.for_all (fun c -> c = '\000') s in
  if all_zero then None
  else begin
    let stored = get_octal s 148 8 in
    let b = Bytes.of_string s in
    if header_checksum b <> stored then
      raise (Serde.Corrupt "tar: header checksum mismatch");
    let name = get_string s 0 100 in
    let prefix = get_string s 345 155 in
    let path = if prefix = "" then name else prefix ^ "/" ^ name in
    let is_dir = Bytes.get b 156 = '5' || (path <> "" && path.[String.length path - 1] = '/') in
    let path =
      if path <> "" && path.[String.length path - 1] = '/' then
        String.sub path 0 (String.length path - 1)
      else path
    in
    let link = if Bytes.get b 156 = '2' then get_string s 157 100 else "" in
    Some
      {
        e_path = path;
        e_is_dir = is_dir;
        e_link = link;
        e_size = get_octal s 124 12;
        e_perms = get_octal s 100 8;
        e_mtime = Float.of_int (get_octal s 136 12);
      }
  end

(* ------------------------------------------------------------------ *)
(* create                                                              *)

let create ?newer ~view ~subtree ~sink () =
  let root =
    match Fs.View.lookup view subtree with
    | Some ino when (Fs.View.getattr view ino).Inode.kind = Inode.Directory -> ino
    | Some _ -> raise (Fs.Error (subtree ^ ": not a directory"))
    | None -> raise (Fs.Error (subtree ^ ": no such directory"))
  in
  let included attr =
    match newer with None -> true | Some t -> attr.Inode.mtime > t
  in
  let entries = ref 0 in
  let start = Tapeio.sink_bytes_written sink in
  let emit_file rel ino (attr : Inode.t) =
    Tapeio.output sink
      (encode_header ~path:rel ~is_dir:false ~size:attr.size ~perms:attr.perms
         ~mtime:attr.mtime ());
    incr entries;
    let remaining = ref attr.size in
    let lbn = ref 0 in
    while !remaining > 0 do
      let take = Stdlib.min !remaining 4096 in
      let data =
        match Fs.View.file_block view ino !lbn with
        | Some b -> String.sub b 0 take
        | None -> String.make take '\000' (* tar densifies holes *)
      in
      (* pad the final fragment to the 512 boundary *)
      let padded =
        let m = take mod block in
        if m = 0 then data else data ^ String.make (block - m) '\000'
      in
      Tapeio.output sink padded;
      remaining := !remaining - take;
      incr lbn
    done
  in
  let rec walk ino rel =
    let dirs, files =
      List.partition
        (fun (_, child) -> (Fs.View.getattr view child).Inode.kind = Inode.Directory)
        (List.sort compare (Fs.View.readdir view ino))
    in
    List.iter
      (fun (name, child) ->
        let crel = if rel = "" then name else rel ^ "/" ^ name in
        let attr = Fs.View.getattr view child in
        if included attr then begin
          Tapeio.output sink
            (encode_header ~path:crel ~is_dir:true ~size:0 ~perms:attr.Inode.perms
               ~mtime:attr.Inode.mtime ());
          incr entries
        end;
        walk child crel)
      dirs;
    List.iter
      (fun (name, child) ->
        let crel = if rel = "" then name else rel ^ "/" ^ name in
        let attr = Fs.View.getattr view child in
        match attr.Inode.kind with
        | Inode.Regular when included attr -> emit_file crel child attr
        | Inode.Symlink when included attr ->
          let target = Fs.View.read view child ~offset:0 ~len:attr.Inode.size in
          Tapeio.output sink
            (encode_header ~link:target ~path:crel ~is_dir:false ~size:0
               ~perms:attr.Inode.perms ~mtime:attr.Inode.mtime ());
          incr entries
        | Inode.Regular | Inode.Symlink | Inode.Directory | Inode.Free -> ())
      files
  in
  walk root "";
  (* end-of-archive: two zero blocks *)
  Tapeio.output sink (String.make (2 * block) '\000');
  Tapeio.close_sink sink;
  { entries_written = !entries; bytes_written = Tapeio.sink_bytes_written sink - start }

(* ------------------------------------------------------------------ *)
(* extract / list                                                      *)

let read_headers src f =
  let continue = ref true in
  while !continue do
    match decode_header (Tapeio.input src block) with
    | None -> continue := false
    | Some e ->
      let data_blocks = (e.e_size + block - 1) / block in
      let data =
        if e.e_is_dir || e.e_link <> "" || data_blocks = 0 then ""
        else String.sub (Tapeio.input src (data_blocks * block)) 0 e.e_size
      in
      f e data
  done

let extract ~fs ~target src =
  Fs.mkdir_p fs target;
  let count = ref 0 in
  let bytes = ref 0 in
  read_headers src (fun e data ->
      let path = if e.e_path = "" then target else target ^ "/" ^ e.e_path in
      incr count;
      if e.e_is_dir then begin
        if Fs.lookup fs path = None then begin
          Fs.mkdir_parents fs path;
          ignore (Fs.mkdir fs path ~perms:e.e_perms)
        end
        else Fs.set_perms fs path ~perms:e.e_perms
      end
      else if e.e_link <> "" then begin
        Fs.mkdir_parents fs path;
        if Fs.lookup fs path <> None then Fs.unlink fs path;
        Fs.symlink fs ~target:e.e_link path
      end
      else begin
        Fs.mkdir_parents fs path;
        if Fs.lookup fs path = None then ignore (Fs.create fs path ~perms:e.e_perms)
        else Fs.set_perms fs path ~perms:e.e_perms;
        Fs.truncate fs path ~size:0;
        if String.length data > 0 then Fs.write fs path ~offset:0 data;
        bytes := !bytes + String.length data;
        Fs.set_times fs path ~mtime:e.e_mtime
      end);
  Fs.cp fs;
  { entries_extracted = !count; bytes_restored = !bytes }

let list src =
  let acc = ref [] in
  read_headers src (fun e _ -> acc := e :: !acc);
  List.rev !acc

module Serde = Repro_util.Serde
module Cost = Repro_sim.Cost
module Volume = Repro_block.Volume
module Fsinfo = Repro_wafl.Fsinfo
module Layout = Repro_wafl.Layout
module Tapeio = Repro_tape.Tapeio

exception Error of string

let err fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

type result = {
  kind : Format.kind;
  snap_name : string;
  blocks_restored : int;
  bytes_read : int;
}

let block_size = 4096

(* Each block is copied once, out of the extent into the string the
   volume keeps. *)
let split_blocks vbn data =
  let n = String.length data / block_size in
  List.init n (fun i -> (vbn + i, String.sub data (i * block_size) block_size))

let apply ?cpu ?(observe = Repro_obs.Obs.observe) ~volume src =
  let input n = try Tapeio.input src n with End_of_file -> err "image stream truncated" in
  let header =
    try Format.read_header input with Serde.Corrupt m -> err "bad image header: %s" m
  in
  if header.Format.volume_blocks > Volume.size_blocks volume then
    err "volume too small: stream needs %d blocks, volume has %d"
      header.Format.volume_blocks (Volume.size_blocks volume);
  (match header.Format.kind with
  | Format.Full -> ()
  | Format.Incremental -> (
    (* The chain invariant: the target must currently be at a state that
       contains the base snapshot. *)
    match Fsinfo.decode (Volume.read volume Layout.fsinfo_vbn_primary) with
    | Some info
      when List.exists
             (fun (s : Fsinfo.snap_entry) ->
               String.equal s.snap_name header.Format.base_name)
             info.Fsinfo.snaps ->
      ()
    | Some _ ->
      err "incremental base snapshot %S not present on target volume"
        header.Format.base_name
    | None -> err "target volume holds no valid file system to apply an incremental to"));
  let blocks = ref 0 in
  let bytes = ref 0 in
  observe "restoring blocks" (fun () ->
      (* Buffer writes across extent records so consecutive extents merge
         into long runs and the RAID layer sees full stripes. *)
      let buffered = ref [] in
      let buffered_count = ref 0 in
      let flush () =
        if !buffered <> [] then begin
          Volume.write_batch volume (List.concat (List.rev !buffered));
          buffered := [];
          buffered_count := 0
        end
      in
      let continue = ref true in
      while !continue do
        match
          try Format.read_record input with Serde.Corrupt m -> err "corrupt image record: %s" m
        with
        | Format.Extent { vbn; data } ->
          Cost.charge cpu
            (Float.of_int (String.length data) *. Cost.f630.image_per_byte);
          Cost.charge cpu
            (Float.of_int (String.length data / block_size) *. Cost.f630.image_per_block);
          buffered := split_blocks vbn data :: !buffered;
          buffered_count := !buffered_count + (String.length data / block_size);
          if !buffered_count >= 2048 then flush ();
          blocks := !blocks + (String.length data / block_size);
          bytes := !bytes + String.length data
        | Format.Trailer { fsinfo } ->
          flush ();
          (match Fsinfo.decode fsinfo with
          | Some _ -> ()
          | None -> err "trailer fsinfo does not decode");
          Volume.write volume Layout.fsinfo_vbn_primary fsinfo;
          Volume.write volume Layout.fsinfo_vbn_backup fsinfo;
          continue := false
      done);
  if !blocks <> header.Format.block_count then
    err "stream advertised %d blocks but carried %d" header.Format.block_count !blocks;
  Repro_obs.Obs.count "image_restore.blocks" !blocks;
  Repro_obs.Obs.count "image_restore.bytes_read" !bytes;
  {
    kind = header.Format.kind;
    snap_name = header.Format.snap_name;
    blocks_restored = !blocks;
    bytes_read = !bytes;
  }

let verify src =
  let problems = ref [] in
  let note fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let blocks = ref 0 in
  (try
     let input n = Tapeio.input src n in
     let header = Format.read_header input in
     let continue = ref true in
     while !continue do
       match Format.read_record input with
       | Format.Extent { vbn; data } ->
         ignore vbn;
         blocks := !blocks + (String.length data / block_size)
       | Format.Trailer { fsinfo } ->
         (match Fsinfo.decode fsinfo with
         | Some _ -> ()
         | None -> note "trailer fsinfo does not decode");
         continue := false
     done;
     if !blocks <> header.Format.block_count then
       note "stream advertised %d blocks but carried %d" header.Format.block_count !blocks
   with
  | Serde.Corrupt m -> note "corrupt: %s" m
  | End_of_file -> note "stream truncated");
  match !problems with [] -> Ok !blocks | l -> Stdlib.Error (List.rev l)

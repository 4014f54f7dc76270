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

(* Consecutive extents are buffered so they merge into long runs and the
   RAID layer sees full stripes: a batch is written once it holds
   [flush_blocks] blocks, and at the trailer. *)
let flush_blocks = 2048

(* Every extent record after the header, in stream order, each checked
   against its CRC and against the extent before it; [last] is the
   highest vbn read so far. Stops after the trailer, which it returns. *)
let iter_extents input f =
  let last = ref (-1) in
  let rec go () =
    match Format.read_record ~after:!last input with
    | Format.Extent { vbn; blocks } ->
      last := vbn + Array.length blocks - 1;
      f vbn blocks;
      go ()
    | Format.Trailer { fsinfo } -> fsinfo
  in
  go ()

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
      let cap = flush_blocks + Format.max_extent_blocks in
      let vbns = Array.make cap 0 and stored = Array.make cap "" in
      let buffered = ref 0 in
      let flush () =
        if !buffered > 0 then begin
          Volume.write_batch ~len:!buffered volume vbns stored;
          buffered := 0
        end
      in
      let fsinfo =
        try
          iter_extents input (fun vbn ext ->
              let n = Array.length ext in
              if vbn + n > Volume.size_blocks volume then
                err "extent at vbn %d runs past the volume's %d blocks" vbn
                  (Volume.size_blocks volume);
              Cost.charge cpu (Float.of_int (n * block_size) *. Cost.f630.image_per_byte);
              Cost.charge cpu (Float.of_int n *. Cost.f630.image_per_block);
              for k = 0 to n - 1 do
                vbns.(!buffered + k) <- vbn + k
              done;
              Array.blit ext 0 stored !buffered n;
              buffered := !buffered + n;
              if !buffered >= flush_blocks then flush ();
              blocks := !blocks + n;
              bytes := !bytes + (n * block_size))
        with Serde.Corrupt m -> err "corrupt image record: %s" m
      in
      flush ();
      (match Fsinfo.decode fsinfo with
      | Some _ -> ()
      | None -> err "trailer fsinfo does not decode");
      Volume.write volume Layout.fsinfo_vbn_primary fsinfo;
      Volume.write volume Layout.fsinfo_vbn_backup fsinfo);
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
     let fsinfo = iter_extents input (fun _ ext -> blocks := !blocks + Array.length ext) in
     (match Fsinfo.decode fsinfo with
     | Some _ -> ()
     | None -> note "trailer fsinfo does not decode");
     if !blocks <> header.Format.block_count then
       note "stream advertised %d blocks but carried %d" header.Format.block_count !blocks
   with
  | Serde.Corrupt m -> note "corrupt: %s" m
  | End_of_file -> note "stream truncated");
  match !problems with [] -> Ok !blocks | l -> Stdlib.Error (List.rev l)

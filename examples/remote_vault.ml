(* Remote vaulting: back a filer up to a tape server across a simulated
   network link — the paper's NDMP-style three-way configuration — then
   lose a file, and restore it back over the same link.

   The remote drives are ordinary pool slots: the engine's mover ships
   each part's records through a flow-controlled session, so cartridge
   content on the vault is byte-identical to a local backup's. A lossy
   link only costs retransmissions; the backup itself cannot tell.

   Run with: dune exec examples/remote_vault.exe *)

module Volume = Repro_block.Volume
module Library = Repro_tape.Library
module Fs = Repro_wafl.Fs
module Strategy = Repro_backup.Strategy
module Engine = Repro_backup.Engine
module Catalog = Repro_backup.Catalog
module Link = Repro_net.Link
module Fault = Repro_fault.Fault
module Generator = Repro_workload.Generator
module Compare = Repro_workload.Compare

let say fmt = Format.printf (fmt ^^ "@.")

let () =
  let vol = Volume.create ~label:"filer" (Volume.small_geometry ~data_blocks:16384) in
  let fs = Fs.mkfs vol in
  let stats = Generator.populate ~fs ~root:"/data" ~total_bytes:1_500_000 () in
  say "filer: %d files, %d bytes under /data" stats.Generator.files
    stats.Generator.bytes;

  (* The filer has one local stacker; the vault site contributes two
     more, reached over a 25 MiB/s link with 5 ms one-way latency. *)
  let engine =
    Engine.create ~fs
      ~libraries:[ Library.create ~slots:16 ~label:"stacker0" () ]
      ()
  in
  let remote =
    Engine.attach_remote engine ~host:"vault"
      ~link_params:
        (Link.params ~bandwidth_bytes_s:(25.0 *. 1024. *. 1024.) ~latency_s:0.005 ())
      ~libraries:
        [
          Library.create ~slots:16 ~label:"vault.stacker0" ();
          Library.create ~slots:16 ~label:"vault.stacker1" ();
        ]
      ()
  in
  say "attached tape server 'vault': drives %s"
    (String.concat "," (List.map string_of_int remote));

  (* Ship a two-part logical dump to the vault — under packet loss, to
     show the transport absorbing it. The engine never sees the drops;
     the link's retransmit counter does. *)
  let plane =
    Fault.plan ~seed:11
      [ Fault.Packet_loss { device = "vault"; losses = 100; prob = 0.03 } ]
  in
  let entry =
    Fault.with_armed plane (fun () ->
        Engine.backup_job engine
          (Engine.Job.make ~strategy:Strategy.Logical ~subtree:"/data" ~parts:2
             ~drives:remote ()))
  in
  let link = Option.get (Engine.link_to engine ~host:"vault") in
  say "backup #%d: %d bytes on %s — %d frames, %d retransmitted"
    entry.Catalog.id entry.Catalog.bytes
    (String.concat "," entry.Catalog.media)
    (Link.frames_sent link) (Link.retransmits link);

  (* Oops: lose the first regular file in the tree. *)
  let module Inode = Repro_wafl.Inode in
  let rec find_file path =
    List.find_map
      (fun (name, ino) ->
        let p = path ^ "/" ^ name in
        match (Fs.getattr_ino fs ino).Inode.kind with
        | Inode.Regular -> Some p
        | Inode.Directory -> find_file p
        | _ -> None)
      (List.sort compare (Fs.readdir fs path))
  in
  let victim = Option.get (find_file "/data") in
  Fs.unlink fs victim;
  say "deleted %s" victim;

  (* Three-way restore: the vault streams the dump back over the link
     and the engine applies it locally. *)
  let results =
    Engine.restore_logical engine ~label:"/data" ~fs:(Engine.fs engine)
      ~target:"/data" ()
  in
  List.iter
    (fun (r : Repro_dump.Restore.apply_result) ->
      say "restored %d files, %d bytes" r.Repro_dump.Restore.files_restored
        r.Repro_dump.Restore.bytes_restored)
    results;
  (match Fs.lookup fs victim with
  | Some _ -> say "%s is back" victim
  | None -> failwith "restore did not bring the file back");
  say "remote vaulting round trip complete"

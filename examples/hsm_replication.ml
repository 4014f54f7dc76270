(* The paper's "future directions" (sections 1 and 6) as running code:

   - the "makeshift HSM": nightly dump/restore replication from a fast
     RAID filer to a cheaper backup file server, which then streams to
     tape on its own schedule;
   - image-dump-based remote mirroring: ship a full image once, then
     plane-difference incrementals, over a rate-limited network link
     ({!Repro_repl.Repl}).

   Run with: dune exec examples/hsm_replication.exe *)

module Volume = Repro_block.Volume
module Library = Repro_tape.Library
module Tapeio = Repro_tape.Tapeio
module Fs = Repro_wafl.Fs
module Dump = Repro_dump.Dump
module Restore = Repro_dump.Restore
module Dumpdates = Repro_dump.Dumpdates
module Link = Repro_net.Link
module Repl = Repro_repl.Repl
module Generator = Repro_workload.Generator
module Ager = Repro_workload.Ager
module Compare = Repro_workload.Compare

let say fmt = Format.printf (fmt ^^ "@.")

(* One "night": dump the primary (level given), pipe the stream to the
   backup server, apply it there. The "pipe" is a high-rate streaming
   device standing in for the LAN. *)
let nightly ~level ~dumpdates ~primary ~session night =
  let lan =
    Library.create
      ~params:(Repro_tape.Tape.params ~native_mb_s:12.5 ~compression:1.0
                 ~capacity_bytes:max_int ())
      ~slots:1
      ~label:(Printf.sprintf "lan.%d" night)
      ()
  in
  Fs.snapshot_create primary "xfer";
  let view = Fs.snapshot_view primary "xfer" in
  let d =
    Dump.run ~level ~dumpdates ~view ~subtree:"/data" ~label:"data"
      ~date:(Fs.now primary) ~sink:(Tapeio.sink lan) ()
  in
  Fs.snapshot_delete primary "xfer";
  let r = Restore.apply session (Tapeio.source lan) in
  say "  night %d: level-%d dump, %d bytes over the wire, %d files updated, %d deleted"
    night level d.Dump.bytes_written r.Restore.files_restored r.Restore.files_deleted

let () =
  say "=== makeshift HSM: nightly dump/restore to a cheap file server ===";
  let primary_vol = Volume.create ~label:"fast" (Volume.small_geometry ~data_blocks:24576) in
  let primary = Fs.mkfs primary_vol in
  ignore (Generator.populate ~fs:primary ~root:"/data" ~total_bytes:2_000_000 ());
  let backup_vol = Volume.create ~label:"cheap" (Volume.small_geometry ~data_blocks:24576) in
  let backup = Fs.mkfs backup_vol in
  let dumpdates = Dumpdates.create () in
  let session = Restore.session ~fs:backup ~target:"/data" () in

  nightly ~level:0 ~dumpdates ~primary ~session 0;
  for night = 1 to 3 do
    (* a day of user activity *)
    ignore
      (Ager.age
         ~churn:{ Ager.default_churn with Ager.seed = night; rounds = 2; batch = 25 }
         ~fs:primary ~root:"/data" ());
    nightly ~level:night ~dumpdates ~primary ~session night
  done;
  (match Compare.trees ~src:(primary, "/data") ~dst:(backup, "/data") () with
  | Ok () -> say "  backup server is an exact replica after 4 nights"
  | Error d -> say "  REPLICA DIVERGED: %s" (String.concat "; " d));

  (* The backup server, not the busy primary, feeds tape. *)
  let tape = Library.create ~slots:16 ~label:"vault" () in
  Fs.snapshot_create backup "to-tape";
  let view = Fs.snapshot_view backup "to-tape" in
  let d =
    Dump.run ~view ~subtree:"/data" ~label:"vault" ~date:(Fs.now backup)
      ~sink:(Tapeio.sink tape) ()
  in
  say "  backup server streamed %d bytes to the tape vault off the critical path"
    d.Dump.bytes_written;
  Fs.snapshot_delete backup "to-tape";

  say "";
  say "=== image-dump mirroring over a 100 Mbit link (paper section 6) ===";
  let t = Repl.create ~primary:"fast" primary in
  Repl.add_replica t ~params:(Link.params ~bandwidth_bytes_s:12.5e6 ()) ~upstream:"fast"
    ~name:"dr-site" ();
  let show (x : Repl.transfer) =
    say "  %s %s: %d bytes, %.2f s on the link"
      (match x.Repl.xfer_kind with `Full -> "full" | `Incremental -> "incremental")
      x.Repl.xfer_snapshot x.Repl.xfer_payload_bytes x.Repl.xfer_wire_s
  in
  ignore (Repl.checkpoint t);
  List.iter show (Repl.sync t ~name:"dr-site");
  for epoch = 1 to 3 do
    ignore
      (Ager.age
         ~churn:{ Ager.default_churn with Ager.seed = 100 + epoch; rounds = 1; batch = 20 }
         ~fs:primary ~root:"/data" ());
    ignore (Repl.checkpoint t);
    (* one plane-difference incremental per new checkpoint *)
    List.iter show (Repl.sync t ~name:"dr-site")
  done;
  (match Repl.verify t ~name:"dr-site" with
  | Ok () -> say "  mirror verified: every checkpoint on dr-site matches the primary"
  | Error d -> say "  MIRROR DIVERGED: %s" (String.concat "; " d));
  say "done."

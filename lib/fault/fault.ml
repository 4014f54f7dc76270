module Ambient = Repro_util.Ambient
module Prng = Repro_util.Prng
module Obs = Repro_obs.Obs

type spec =
  | Latent_sector_error of { device : string; addr : int }
  | Flaky_reads of { device : string; failures : int; prob : float }
  | Disk_death of { device : string; after_ios : int }
  | Tape_soft_errors of {
      device : string;
      op : [ `Read | `Write ];
      failures : int;
    }
  | Tape_hard_error of { device : string; record : int }
  | Tape_drive_death of { device : string; after_records : int }
  | Nvram_loss of { device : string; after_ops : int }
  | Torn_fsinfo_write of { device : string }
  | Packet_loss of { device : string; losses : int; prob : float }
  | Link_flap of { device : string; after_frames : int; down_frames : int }
  | Link_partition of { device : string; after_frames : int }

type event = {
  seq : int;
  kind : string;
  device : string;
  addr : int;
  detail : string;
  span : int;
  injected : bool;
}

(* Mutable per-device state compiled from the specs. *)
type dstate = {
  mutable lse : int list;  (** unreadable block addresses *)
  mutable flaky_left : int;
  mutable flaky_prob : float;
  mutable death_countdown : int;  (** -1 = no death scheduled *)
  mutable soft_read_left : int;
  mutable soft_write_left : int;
  mutable hard_records : int list;
  mutable tape_death_countdown : int;
  mutable tape_dead : bool;
  mutable nvram_countdown : int;
  mutable torn_fsinfo : bool;
  mutable loss_left : int;
  mutable loss_prob : float;
  mutable flap_countdown : int;  (** frames until the flap starts; -1 = none *)
  mutable flap_left : int;  (** frames still dropped by an active flap *)
  mutable partition_countdown : int;  (** -1 = no partition scheduled *)
  mutable partitioned : bool;
}

let fresh_dstate () =
  {
    lse = [];
    flaky_left = 0;
    flaky_prob = 0.0;
    death_countdown = -1;
    soft_read_left = 0;
    soft_write_left = 0;
    hard_records = [];
    tape_death_countdown = -1;
    tape_dead = false;
    nvram_countdown = -1;
    torn_fsinfo = false;
    loss_left = 0;
    loss_prob = 0.0;
    flap_countdown = -1;
    flap_left = 0;
    partition_countdown = -1;
    partitioned = false;
  }

type plane = {
  p_specs : spec list;
  rng : Prng.t;
  by_device : (string, dstate) Hashtbl.t;
  mutable journal : event list; (* newest first *)
  mutable seq : int;
}

let state p device =
  match Hashtbl.find_opt p.by_device device with
  | Some s -> s
  | None ->
    let s = fresh_dstate () in
    Hashtbl.add p.by_device device s;
    s

exception Invalid_spec of string

(* Each bound is read off the spec's hook: addresses and records are
   indices from 0 up, a probability is compared with a draw from [0, 1),
   a budget is spent one fault at a time, and a countdown below 0 is the
   "nothing scheduled" sentinel. A flap is the exception: its hook drops
   frames while its countdown is negative, so any [after_frames] fires. *)
let check spec =
  let refuse device =
    Printf.ksprintf (fun why ->
        raise (Invalid_spec (Printf.sprintf "fault spec on %s: %s" device why)))
  in
  match spec with
  | Latent_sector_error { device; addr = v }
  | Tape_hard_error { device; record = v }
  | Disk_death { device; after_ios = v }
  | Tape_drive_death { device; after_records = v }
  | Nvram_loss { device; after_ops = v }
  | Link_partition { device; after_frames = v } ->
    if v < 0 then refuse device "address or countdown %d is negative" v
  | Tape_soft_errors { device; failures = n; _ } | Link_flap { device; down_frames = n; _ } ->
    if n < 1 then refuse device "count %d is below 1" n
  | Flaky_reads { device; failures = n; prob } | Packet_loss { device; losses = n; prob } ->
    if n < 1 then refuse device "count %d is below 1" n
    else if not (prob > 0.0 && prob <= 1.0) then
      refuse device "probability %g is not in (0, 1]" prob
  | Torn_fsinfo_write _ -> ()

let plan ?(seed = 0) specs =
  List.iter check specs;
  let p =
    {
      p_specs = specs;
      rng = Prng.create seed;
      by_device = Hashtbl.create 8;
      journal = [];
      seq = 0;
    }
  in
  List.iter
    (fun spec ->
      match spec with
      | Latent_sector_error { device; addr } ->
        let s = state p device in
        s.lse <- addr :: s.lse
      | Flaky_reads { device; failures; prob } ->
        let s = state p device in
        s.flaky_left <- s.flaky_left + failures;
        s.flaky_prob <- prob
      | Disk_death { device; after_ios } ->
        (state p device).death_countdown <- after_ios
      | Tape_soft_errors { device; op; failures } -> (
        let s = state p device in
        match op with
        | `Read -> s.soft_read_left <- s.soft_read_left + failures
        | `Write -> s.soft_write_left <- s.soft_write_left + failures)
      | Tape_hard_error { device; record } ->
        let s = state p device in
        s.hard_records <- record :: s.hard_records
      | Tape_drive_death { device; after_records } ->
        (state p device).tape_death_countdown <- after_records
      | Nvram_loss { device; after_ops } ->
        (state p device).nvram_countdown <- after_ops
      | Torn_fsinfo_write { device } -> (state p device).torn_fsinfo <- true
      | Packet_loss { device; losses; prob } ->
        let s = state p device in
        s.loss_left <- s.loss_left + losses;
        s.loss_prob <- prob
      | Link_flap { device; after_frames; down_frames } ->
        let s = state p device in
        s.flap_countdown <- after_frames;
        s.flap_left <- down_frames
      | Link_partition { device; after_frames } ->
        (state p device).partition_countdown <- after_frames)
    specs;
  p

(* ------------------------------------------------------------------ *)
(* Arming                                                              *)

let current : plane Ambient.t = Ambient.make ()
let with_armed p f = Ambient.with_ current p f

(* ------------------------------------------------------------------ *)
(* Journal                                                             *)

(* Every journalled event also lands on the armed obs plane (if any) as
   an instant inside the current span — the fault ↔ trace correlation:
   the instant carries the journal seq, and retry attempt spans carry it
   back ({!note_retry} returns it). *)
let record_ev p ~kind ~device ~addr ~detail ~injected =
  let span = Obs.current_span () in
  let ev = { seq = p.seq; kind; device; addr; detail; span; injected } in
  p.seq <- p.seq + 1;
  p.journal <- ev :: p.journal;
  Obs.instant ("fault." ^ kind)
    ~attrs:
      [
        ("journal_seq", Obs.Int ev.seq);
        ("device", Obs.Str device);
        ("addr", Obs.Int addr);
        ("detail", Obs.Str detail);
        ("injected", Obs.Bool injected);
      ];
  ev.seq

let record p ~kind ~device ~addr ~detail =
  ignore (record_ev p ~kind ~device ~addr ~detail ~injected:false)

let inject p ~kind ~device ~addr ~detail =
  Obs.count "fault.injected" 1;
  ignore (record_ev p ~kind ~device ~addr ~detail ~injected:true)

let events p = List.rev p.journal

(* The counters the report prints are folds over the journal — the
   journal is the single source of truth; the obs metrics registry
   mirrors it when a plane is armed. *)
let fold_count pred p =
  List.fold_left (fun n ev -> if pred ev then n + 1 else n) 0 p.journal

let injected p = fold_count (fun ev -> ev.injected) p
let repairs p = fold_count (fun ev -> ev.kind = "repair") p
let retries p = fold_count (fun ev -> ev.kind = "retry") p
let skips p = fold_count (fun ev -> ev.kind = "skip") p

let line (ev : event) =
  Printf.sprintf "%04d %-12s %-20s %6d %s" ev.seq ev.kind ev.device ev.addr
    ev.detail

let journal_lines p = List.map line (events p)

(* ------------------------------------------------------------------ *)
(* Failures                                                            *)

exception Media_error of { device : string; addr : int }
exception Transient of { device : string; what : string }
exception Drive_dead of string
exception Partitioned of string

(* ------------------------------------------------------------------ *)
(* Hooks                                                               *)

(* Hooks run on every device I/O: the disarmed path must be one branch,
   and the armed-but-idle path one domain-local lookup and one hashtable
   miss. *)

let on_disk_read ~device ~addr =
  match Ambient.get current with
  | None -> ()
  | Some p -> (
    match Hashtbl.find_opt p.by_device device with
    | None -> ()
    | Some s ->
      if s.death_countdown >= 0 then begin
        s.death_countdown <- s.death_countdown - 1;
        if s.death_countdown < 0 then begin
          inject p ~kind:"disk-dead" ~device ~addr ~detail:"drive failed";
          raise (Drive_dead device)
        end
      end;
      if List.mem addr s.lse then begin
        inject p ~kind:"lse" ~device ~addr ~detail:"latent sector error";
        raise (Media_error { device; addr })
      end;
      if s.flaky_left > 0 && Prng.float p.rng 1.0 < s.flaky_prob then begin
        s.flaky_left <- s.flaky_left - 1;
        inject p ~kind:"transient" ~device ~addr ~detail:"read timeout";
        raise (Transient { device; what = "read timeout" })
      end)

let on_disk_write ~device ~addr =
  match Ambient.get current with
  | None -> ()
  | Some p -> (
    match Hashtbl.find_opt p.by_device device with
    | None -> ()
    | Some s ->
      if s.death_countdown >= 0 then begin
        s.death_countdown <- s.death_countdown - 1;
        if s.death_countdown < 0 then begin
          inject p ~kind:"disk-dead" ~device ~addr ~detail:"drive failed";
          raise (Drive_dead device)
        end
      end;
      if List.mem addr s.lse then begin
        (* Rewriting the sector remaps it: the latent error is gone. *)
        s.lse <- List.filter (fun a -> a <> addr) s.lse;
        record p ~kind:"lse-cleared" ~device ~addr ~detail:"sector rewritten"
      end)

let tape_death_tick p s ~device ~record:r =
  if s.tape_dead then begin
    inject p ~kind:"tape-dead" ~device ~addr:r ~detail:"drive is dead";
    raise (Drive_dead device)
  end;
  if s.tape_death_countdown >= 0 then begin
    s.tape_death_countdown <- s.tape_death_countdown - 1;
    if s.tape_death_countdown < 0 then begin
      s.tape_dead <- true;
      inject p ~kind:"tape-dead" ~device ~addr:r ~detail:"drive died mid-stream";
      raise (Drive_dead device)
    end
  end

let on_tape_read ~device ~record:r =
  match Ambient.get current with
  | None -> ()
  | Some p -> (
    match Hashtbl.find_opt p.by_device device with
    | None -> ()
    | Some s ->
      tape_death_tick p s ~device ~record:r;
      if List.mem r s.hard_records then begin
        inject p ~kind:"tape-hard" ~device ~addr:r ~detail:"unreadable record";
        raise (Media_error { device; addr = r })
      end;
      if s.soft_read_left > 0 then begin
        s.soft_read_left <- s.soft_read_left - 1;
        inject p ~kind:"tape-soft" ~device ~addr:r ~detail:"soft read error";
        raise (Transient { device; what = "soft read error" })
      end)

let on_tape_write ~device ~record:r =
  match Ambient.get current with
  | None -> ()
  | Some p -> (
    match Hashtbl.find_opt p.by_device device with
    | None -> ()
    | Some s ->
      tape_death_tick p s ~device ~record:r;
      if s.soft_write_left > 0 then begin
        s.soft_write_left <- s.soft_write_left - 1;
        inject p ~kind:"tape-soft" ~device ~addr:r ~detail:"soft write error";
        raise (Transient { device; what = "soft write error" })
      end)

let on_nvram_log ~device =
  match Ambient.get current with
  | None -> `Ok
  | Some p -> (
    match Hashtbl.find_opt p.by_device device with
    | None -> `Ok
    | Some s ->
      if s.nvram_countdown >= 0 then begin
        s.nvram_countdown <- s.nvram_countdown - 1;
        if s.nvram_countdown < 0 then begin
          inject p ~kind:"nvram-loss" ~device ~addr:(-1)
            ~detail:"NVRAM contents lost";
          `Lost
        end
        else `Ok
      end
      else `Ok)

let on_fsinfo_write ~device ~primary =
  match Ambient.get current with
  | None -> `Ok
  | Some p -> (
    match Hashtbl.find_opt p.by_device device with
    | None -> `Ok
    | Some s ->
      if primary && s.torn_fsinfo then begin
        s.torn_fsinfo <- false;
        inject p ~kind:"torn-fsinfo" ~device ~addr:0
          ~detail:"primary fsinfo write torn";
        `Torn
      end
      else `Ok)

let on_link_send ~device ~frame =
  match Ambient.get current with
  | None -> `Ok
  | Some p -> (
    match Hashtbl.find_opt p.by_device device with
    | None -> `Ok
    | Some s ->
      if s.partitioned then begin
        inject p ~kind:"net-partition" ~device ~addr:frame
          ~detail:"link is partitioned";
        raise (Partitioned device)
      end;
      if s.partition_countdown >= 0 then begin
        s.partition_countdown <- s.partition_countdown - 1;
        if s.partition_countdown < 0 then begin
          s.partitioned <- true;
          inject p ~kind:"net-partition" ~device ~addr:frame
            ~detail:"link partitioned mid-stream";
          raise (Partitioned device)
        end
      end;
      if s.flap_countdown >= 0 then s.flap_countdown <- s.flap_countdown - 1;
      if s.flap_countdown < 0 && s.flap_left > 0 then begin
        s.flap_left <- s.flap_left - 1;
        inject p ~kind:"net-flap" ~device ~addr:frame ~detail:"link down, frame dropped";
        `Lost
      end
      else if s.loss_left > 0 && Prng.float p.rng 1.0 < s.loss_prob then begin
        s.loss_left <- s.loss_left - 1;
        inject p ~kind:"net-loss" ~device ~addr:frame ~detail:"frame dropped";
        `Lost
      end
      else `Ok)

let revive p ~device =
  let s = state p device in
  s.tape_dead <- false;
  s.tape_death_countdown <- -1;
  s.partitioned <- false;
  s.partition_countdown <- -1;
  record p ~kind:"revive" ~device ~addr:(-1) ~detail:"drive replaced / link healed"

let dead p ~device =
  match Hashtbl.find_opt p.by_device device with
  | Some s -> s.tape_dead
  | None -> false

let partitioned p ~device =
  match Hashtbl.find_opt p.by_device device with
  | Some s -> s.partitioned
  | None -> false

(* ------------------------------------------------------------------ *)
(* Response notes                                                      *)

let note_repair ~device ~addr =
  match Ambient.get current with
  | None -> ()
  | Some p ->
    Obs.count "fault.repairs" 1;
    record p ~kind:"repair" ~device ~addr ~detail:"reconstructed from parity"

let note_retry ~device ~what ~attempt ~delay_s =
  match Ambient.get current with
  | None -> -1
  | Some p ->
    Obs.count "fault.retries" 1;
    record_ev p ~kind:"retry" ~device ~addr:attempt
      ~detail:(Printf.sprintf "%s, backoff %.3fs" what delay_s)
      ~injected:false

let note_skip ~device ~addr ~what =
  match Ambient.get current with
  | None -> ()
  | Some p ->
    Obs.count "fault.skips" 1;
    record p ~kind:"skip" ~device ~addr ~detail:what

let note_retransmit ~device ~frame =
  match Ambient.get current with
  | None -> -1
  | Some p ->
    Obs.count "fault.retransmits" 1;
    record_ev p ~kind:"retransmit" ~device ~addr:frame
      ~detail:"timeout, frame resent" ~injected:false

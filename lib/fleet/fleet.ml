(* Fleet-scale control plane: plan and execute one backup night across
   many simulated filers on the generalized multi-resource scheduler.

   Everything here follows the library's execute-at-admission
   discipline: a volume's filer is built deterministically from its
   seed when the scheduler admits it, its dump runs synchronously, and
   only the duration is simulated — charged to the granted drive slot,
   the host link, the source filer's disks, and the tenant's bandwidth
   budget as a fluid demand vector. Per-volume tape bytes are therefore
   a pure function of the volume spec, which is what makes storm-and-
   restart byte identity hold by construction (and lets the
   differential suite check it). *)

module Scheduler = Repro_backup.Scheduler
module Resource_id = Repro_sim.Resource_id
module Engine = Repro_backup.Engine
module Strategy = Repro_backup.Strategy
module Catalog = Repro_backup.Catalog
module Volume = Repro_block.Volume
module Fs = Repro_wafl.Fs
module Library = Repro_tape.Library
module Generator = Repro_workload.Generator
module Link = Repro_net.Link
module Obs = Repro_obs.Obs
module Analysis = Repro_obs.Analysis
module Slo = Repro_obs.Slo
module Serde = Repro_util.Serde
module Crc32 = Repro_util.Crc32

(* ------------------------------------------------------------------ *)
(* Spec                                                                *)

module Spec = struct
  type host = { h_name : string; h_drives : int; h_link : Link.params }
  type tenant = { t_name : string; t_budget_bytes_s : float }

  type volume = {
    v_name : string;
    v_host : string;
    v_tenant : string;
    v_filer : string;
    v_bytes : int;
    v_priority : int;
    v_window_s : float;
    v_deadline_s : float;
    v_seed : int;
  }

  type t = {
    s_seed : int;
    s_hosts : host list;
    s_tenants : tenant list;
    s_volumes : volume list;
  }

  type error =
    | Parse of { line : int; msg : string }
    | Empty_fleet
    | Duplicate_name of string
    | Unknown_host of { volume : string; host : string }
    | Unknown_tenant of { volume : string; tenant : string }
    | Bad_value of { name : string; field : string }
    | Bad_name of { kind : string; name : string }

  exception Invalid of error

  let error_message = function
    | Parse { line; msg } -> Printf.sprintf "spec line %d: %s" line msg
    | Empty_fleet -> "fleet spec needs at least one host and one volume"
    | Duplicate_name n -> Printf.sprintf "duplicate name %S in fleet spec" n
    | Unknown_host { volume; host } ->
      Printf.sprintf "volume %s names unknown host %S" volume host
    | Unknown_tenant { volume; tenant } ->
      Printf.sprintf "volume %s names unknown tenant %S" volume tenant
    | Bad_value { name; field } ->
      Printf.sprintf "%s: bad value for %s" name field
    | Bad_name { kind; name } ->
      Printf.sprintf
        "%s name %S: names are embedded in metric paths and may only use \
         letters, digits, _ and -"
        kind name

  let invalid e = raise (Invalid e)

  (* Names land verbatim in metric paths (fleet.tenant.<name>.goodput_
     bytes_s, fleet.volume.<name>.done) and in fault-device labels, so a
     dot (or any separator) would make those paths ambiguous — a tenant
     "a.b" is indistinguishable from a tenant "a" with a sub-key "b".
     Validate at spec construction with a typed error instead. *)
  let name_ok n =
    n <> ""
    && String.for_all
         (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '-' -> true | _ -> false)
         n

  let check_name ~kind n =
    if not (name_ok n) then invalid (Bad_name { kind; name = n })

  let check_dups names =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun n ->
        if Hashtbl.mem tbl n then invalid (Duplicate_name n)
        else Hashtbl.add tbl n ())
      names

  (* A NaN gets past every [<]/[<=] check below, and an infinite window
     or rate never lets the night settle: every number must be finite. *)
  let check_finite ~name ~field x =
    if not (Float.is_finite x) then invalid (Bad_value { name; field })

  let make ?(seed = 1) ~hosts ~tenants volumes =
    if hosts = [] || volumes = [] then invalid Empty_fleet;
    check_dups
      (List.map (fun h -> h.h_name) hosts
      @ List.map (fun t -> t.t_name) tenants
      @ List.map (fun v -> v.v_name) volumes);
    List.iter
      (fun h ->
        check_name ~kind:"host" h.h_name;
        check_finite ~name:h.h_name ~field:"link_mb_s" h.h_link.Link.bandwidth_bytes_s;
        check_finite ~name:h.h_name ~field:"latency_ms" h.h_link.Link.latency_s;
        if h.h_drives < 1 then
          invalid (Bad_value { name = h.h_name; field = "drives" }))
      hosts;
    List.iter
      (fun t ->
        check_name ~kind:"tenant" t.t_name;
        check_finite ~name:t.t_name ~field:"budget" t.t_budget_bytes_s;
        if t.t_budget_bytes_s <= 0.0 then
          invalid (Bad_value { name = t.t_name; field = "budget" }))
      tenants;
    List.iter
      (fun v ->
        check_name ~kind:"volume" v.v_name;
        check_name ~kind:"filer" v.v_filer;
        if not (List.exists (fun h -> h.h_name = v.v_host) hosts) then
          invalid (Unknown_host { volume = v.v_name; host = v.v_host });
        if
          v.v_tenant <> ""
          && not (List.exists (fun t -> t.t_name = v.v_tenant) tenants)
        then invalid (Unknown_tenant { volume = v.v_name; tenant = v.v_tenant });
        if v.v_bytes <= 0 then
          invalid (Bad_value { name = v.v_name; field = "bytes" });
        if v.v_priority < 0 then
          invalid (Bad_value { name = v.v_name; field = "priority" });
        check_finite ~name:v.v_name ~field:"window_s" v.v_window_s;
        check_finite ~name:v.v_name ~field:"deadline_s" v.v_deadline_s;
        if v.v_window_s < 0.0 then
          invalid (Bad_value { name = v.v_name; field = "window_s" });
        if v.v_deadline_s < 0.0 then
          invalid (Bad_value { name = v.v_name; field = "deadline_s" });
        if v.v_deadline_s > 0.0 && v.v_deadline_s <= v.v_window_s then
          invalid (Bad_value { name = v.v_name; field = "deadline_s" }))
      volumes;
    { s_seed = seed; s_hosts = hosts; s_tenants = tenants; s_volumes = volumes }

  (* A fixed multiplier decorrelates per-volume workload seeds from the
     fleet seed without any host randomness. *)
  let volume_seed ~fleet_seed i = (fleet_seed * 1_000_003) + i + 1

  let synth ?(seed = 1) ?(hosts = 2) ?(drives_per_host = 4) ?(tenants = 2)
      ?(bytes_per_volume = 64_000) ?link ?(budget_bytes_s = 64e6)
      ?(window_every = 0) ?(window_s = 0.0) ?(deadline_every = 0)
      ?(deadline_s = 0.0) ~volumes () =
    let link =
      match link with
      | Some l -> l
      | None ->
        Link.params ~bandwidth_bytes_s:2e6 ~latency_s:2e-4
          ~window_bytes:(256 * 1024) ()
    in
    let filers = (volumes / 4) + 1 in
    let host_names = List.init hosts (Printf.sprintf "vault%d") in
    let tenant_names = List.init tenants (Printf.sprintf "t%d") in
    let vols =
      List.init volumes (fun i ->
          {
            v_name = Printf.sprintf "v%04d" i;
            v_host = List.nth host_names (i mod hosts);
            v_tenant = List.nth tenant_names (i mod tenants);
            v_filer = Printf.sprintf "f%03d" (i mod filers);
            v_bytes = bytes_per_volume;
            v_priority = i mod 3;
            v_window_s =
              (if window_every > 0 && i mod window_every = 0 then window_s
               else 0.0);
            v_deadline_s =
              (if deadline_every > 0 && i mod deadline_every = 0 then deadline_s
               else 0.0);
            v_seed = volume_seed ~fleet_seed:seed i;
          })
    in
    make ~seed
      ~hosts:
        (List.map
           (fun n -> { h_name = n; h_drives = drives_per_host; h_link = link })
           host_names)
      ~tenants:
        (List.map
           (fun n -> { t_name = n; t_budget_bytes_s = budget_bytes_s })
           tenant_names)
      vols

  (* Canonical text form; [parse] reads it back exactly, and [digest]
     is the CRC of these bytes. *)
  let fnum = Printf.sprintf "%.17g"

  let render s =
    let b = Buffer.create 1024 in
    Buffer.add_string b (Printf.sprintf "fleet seed=%d\n" s.s_seed);
    List.iter
      (fun h ->
        Buffer.add_string b
          (Printf.sprintf
             "host %s drives=%d link_mb_s=%s latency_ms=%s mtu=%d \
              window_kib=%d retrans=%d\n"
             h.h_name h.h_drives
             (fnum (h.h_link.Link.bandwidth_bytes_s /. 1e6))
             (fnum (h.h_link.Link.latency_s *. 1e3))
             h.h_link.Link.mtu_bytes
             (h.h_link.Link.window_bytes / 1024)
             h.h_link.Link.max_retransmits))
      s.s_hosts;
    List.iter
      (fun t ->
        Buffer.add_string b
          (Printf.sprintf "tenant %s budget_mb_s=%s\n" t.t_name
             (fnum (t.t_budget_bytes_s /. 1e6))))
      s.s_tenants;
    List.iter
      (fun v ->
        (* deadline_s is emitted only when set, so pre-deadline specs
           render (and digest) exactly as before. *)
        Buffer.add_string b
          (Printf.sprintf
             "volume %s host=%s tenant=%s filer=%s bytes=%d priority=%d \
              window_s=%s%s seed=%d\n"
             v.v_name v.v_host v.v_tenant v.v_filer v.v_bytes v.v_priority
             (fnum v.v_window_s)
             (if v.v_deadline_s > 0.0 then
                Printf.sprintf " deadline_s=%s" (fnum v.v_deadline_s)
              else "")
             v.v_seed))
      s.s_volumes;
    Buffer.contents b

  let split_words s =
    String.split_on_char ' ' s |> List.filter (fun w -> w <> "")

  let parse_fields ~line fields =
    List.map
      (fun f ->
        match String.index_opt f '=' with
        | Some i ->
          (String.sub f 0 i, String.sub f (i + 1) (String.length f - i - 1))
        | None ->
          invalid (Parse { line; msg = Printf.sprintf "expected key=value, got %S" f }))
      fields

  let field ~line kvs k =
    match List.assoc_opt k kvs with
    | Some v -> v
    | None -> invalid (Parse { line; msg = "missing field " ^ k })

  let int_field ~line kvs k =
    match int_of_string_opt (field ~line kvs k) with
    | Some v -> v
    | None -> invalid (Parse { line; msg = "field " ^ k ^ " is not an integer" })

  let float_field ~line kvs k =
    match float_of_string_opt (field ~line kvs k) with
    | Some v -> v
    | None -> invalid (Parse { line; msg = "field " ^ k ^ " is not a number" })

  let opt_int ~line kvs k ~default =
    if List.mem_assoc k kvs then int_field ~line kvs k else default

  let opt_float ~line kvs k ~default =
    if List.mem_assoc k kvs then float_field ~line kvs k else default

  let opt_str kvs k ~default =
    match List.assoc_opt k kvs with Some v -> v | None -> default

  let parse text =
    let seed = ref 1 in
    let hosts = ref [] and tenants = ref [] and volumes = ref [] in
    let nvols = ref 0 in
    List.iteri
      (fun i raw ->
        let line = i + 1 in
        let stripped =
          match String.index_opt raw '#' with
          | Some j -> String.sub raw 0 j
          | None -> raw
        in
        match split_words stripped with
        | [] -> ()
        | "fleet" :: fields ->
          seed := int_field ~line (parse_fields ~line fields) "seed"
        | "host" :: name :: fields ->
          let kvs = parse_fields ~line fields in
          let d = Link.default_params in
          let link =
            try
              Link.params
                ~bandwidth_bytes_s:
                  (opt_float ~line kvs "link_mb_s"
                     ~default:(d.Link.bandwidth_bytes_s /. 1e6)
                  *. 1e6)
                ~latency_s:
                  (opt_float ~line kvs "latency_ms"
                     ~default:(d.Link.latency_s *. 1e3)
                  /. 1e3)
                ~mtu_bytes:(opt_int ~line kvs "mtu" ~default:d.Link.mtu_bytes)
                ~window_bytes:
                  (opt_int ~line kvs "window_kib"
                     ~default:(d.Link.window_bytes / 1024)
                  * 1024)
                ~max_retransmits:
                  (opt_int ~line kvs "retrans" ~default:d.Link.max_retransmits)
                ()
            with Link.Invalid e ->
              invalid (Parse { line; msg = Link.error_message e })
          in
          hosts :=
            { h_name = name; h_drives = int_field ~line kvs "drives"; h_link = link }
            :: !hosts
        | "tenant" :: name :: fields ->
          let kvs = parse_fields ~line fields in
          tenants :=
            {
              t_name = name;
              t_budget_bytes_s = float_field ~line kvs "budget_mb_s" *. 1e6;
            }
            :: !tenants
        | "volume" :: name :: fields ->
          let kvs = parse_fields ~line fields in
          incr nvols;
          volumes :=
            {
              v_name = name;
              v_host = field ~line kvs "host";
              v_tenant = opt_str kvs "tenant" ~default:"";
              v_filer = opt_str kvs "filer" ~default:name;
              v_bytes = int_field ~line kvs "bytes";
              v_priority = opt_int ~line kvs "priority" ~default:0;
              v_window_s = opt_float ~line kvs "window_s" ~default:0.0;
              v_deadline_s = opt_float ~line kvs "deadline_s" ~default:0.0;
              v_seed =
                opt_int ~line kvs "seed"
                  ~default:(volume_seed ~fleet_seed:!seed (!nvols - 1));
            }
            :: !volumes
        | w :: _ ->
          invalid (Parse { line; msg = Printf.sprintf "unknown directive %S" w }))
      (String.split_on_char '\n' text);
    make ~seed:!seed ~hosts:(List.rev !hosts) ~tenants:(List.rev !tenants)
      (List.rev !volumes)

  let digest s = Crc32.string (render s)
end

(* ------------------------------------------------------------------ *)
(* Planning                                                            *)

type assignment = {
  a_volume : Spec.volume;
  a_slots : Scheduler.slot list;
  a_ready : float;
}

type plan = {
  p_spec : Spec.t;
  p_assignments : assignment list;
  p_slots : (Scheduler.slot * string) list;
}

let plan (spec : Spec.t) =
  (* Drive slots numbered across hosts in spec order. *)
  let next = ref 0 in
  let slots_by_host =
    List.map
      (fun (h : Spec.host) ->
        let slots =
          List.init h.Spec.h_drives (fun i ->
              Resource_id.Drive (!next + i))
        in
        next := !next + h.Spec.h_drives;
        (h.Spec.h_name, slots))
      spec.Spec.s_hosts
  in
  let p_slots =
    List.concat_map (fun (host, slots) -> List.map (fun s -> (s, host)) slots)
      slots_by_host
  in
  let queue =
    List.stable_sort
      (fun (a : Spec.volume) (b : Spec.volume) ->
        match compare a.Spec.v_priority b.Spec.v_priority with
        | 0 -> (
          match compare a.Spec.v_window_s b.Spec.v_window_s with
          | 0 -> compare a.Spec.v_name b.Spec.v_name
          | c -> c)
        | c -> c)
      spec.Spec.s_volumes
  in
  let p_assignments =
    List.map
      (fun (v : Spec.volume) ->
        {
          a_volume = v;
          a_slots = List.assoc v.Spec.v_host slots_by_host;
          a_ready = v.Spec.v_window_s;
        })
      queue
  in
  { p_spec = spec; p_assignments; p_slots }

let hosts_with_volumes (spec : Spec.t) =
  List.filter
    (fun (h : Spec.host) ->
      List.exists (fun (v : Spec.volume) -> v.Spec.v_host = h.Spec.h_name)
        spec.Spec.s_volumes)
    spec.Spec.s_hosts

let link_bound_bytes_s p =
  List.fold_left
    (fun acc (h : Spec.host) -> acc +. Link.model_goodput h.Spec.h_link)
    0.0
    (hosts_with_volumes p.p_spec)

let pp_plan ppf p =
  let spec = p.p_spec in
  Format.fprintf ppf "fleet plan: %d volumes, %d hosts, %d tenants@."
    (List.length spec.Spec.s_volumes)
    (List.length spec.Spec.s_hosts)
    (List.length spec.Spec.s_tenants);
  List.iter
    (fun (h : Spec.host) ->
      let vols =
        List.filter (fun (v : Spec.volume) -> v.Spec.v_host = h.Spec.h_name)
          spec.Spec.s_volumes
      in
      let bytes =
        List.fold_left (fun a (v : Spec.volume) -> a + v.Spec.v_bytes) 0 vols
      in
      let goodput = Link.model_goodput h.Spec.h_link in
      Format.fprintf ppf
        "  host %-10s %d drives, %4d volumes, %8d bytes, link %.2f MB/s \
         (floor %.1f s)@."
        h.Spec.h_name h.Spec.h_drives (List.length vols) bytes (goodput /. 1e6)
        (Float.of_int bytes /. goodput))
    spec.Spec.s_hosts;
  List.iter
    (fun (t : Spec.tenant) ->
      let vols =
        List.filter (fun (v : Spec.volume) -> v.Spec.v_tenant = t.Spec.t_name)
          spec.Spec.s_volumes
      in
      Format.fprintf ppf "  tenant %-8s %4d volumes, budget %.2f MB/s@."
        t.Spec.t_name (List.length vols)
        (t.Spec.t_budget_bytes_s /. 1e6))
    spec.Spec.s_tenants;
  let windowed =
    List.length
      (List.filter (fun a -> a.a_ready > 0.0) p.p_assignments)
  in
  Format.fprintf ppf "  queue: priority order, %d volumes window-delayed@."
    windowed

(* ------------------------------------------------------------------ *)
(* The fleet catalog (FLT1)                                            *)

module Status = struct
  type completed = {
    c_volume : string;
    c_tenant : string;
    c_host : string;
    c_bytes : int;
    c_tape_bytes : int;
    c_tape_crc : int;
    c_drive : string;
    c_started : float;
    c_finished : float;
  }

  type t = { st_digest : int; st_completed : completed list }

  let empty spec = { st_digest = Spec.digest spec; st_completed = [] }
  let magic = "FLT1"

  let save w t =
    Serde.write_fixed w magic;
    Serde.write_u32 w t.st_digest;
    Serde.write_list Serde.U32
      (fun w c ->
        Serde.write_string w c.c_volume;
        Serde.write_string w c.c_tenant;
        Serde.write_string w c.c_host;
        Serde.write_int w c.c_bytes;
        Serde.write_int w c.c_tape_bytes;
        Serde.write_u32 w c.c_tape_crc;
        Serde.write_string w c.c_drive;
        Serde.write_float w c.c_started;
        Serde.write_float w c.c_finished)
      w t.st_completed

  let load r =
    Serde.expect_magic r magic;
    let digest = Serde.read_u32 r in
    let completed =
      Serde.read_list Serde.U32
        (fun r ->
          let c_volume = Serde.read_string r in
          let c_tenant = Serde.read_string r in
          let c_host = Serde.read_string r in
          let c_bytes = Serde.read_int r in
          let c_tape_bytes = Serde.read_int r in
          let c_tape_crc = Serde.read_u32 r in
          let c_drive = Serde.read_string r in
          let c_started = Serde.read_float r in
          let c_finished = Serde.read_float r in
          {
            c_volume;
            c_tenant;
            c_host;
            c_bytes;
            c_tape_bytes;
            c_tape_crc;
            c_drive;
            c_started;
            c_finished;
          })
        r
    in
    { st_digest = digest; st_completed = completed }

  let pp ppf t =
    Format.fprintf ppf "fleet catalog: spec %08x, %d volumes completed@."
      t.st_digest
      (List.length t.st_completed);
    List.iter
      (fun c ->
        Format.fprintf ppf
          "  %-10s tenant %-8s host %-10s %8d bytes on %s  [%.1f, %.1f]s  \
           tape crc %08x@."
          c.c_volume c.c_tenant c.c_host c.c_bytes c.c_drive c.c_started
          c.c_finished c.c_tape_crc)
      t.st_completed
end

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)

type storm = {
  storm_after : int;
  storm_drives : int;
  storm_abort_after : int option;
  storm_seed : int;
}

exception Drive_storm of string
exception Night_aborted

type report = {
  rp_elapsed : float;
  rp_completed : Status.completed list;
  rp_failed : (string * string) list;
  rp_unran : string list;
  rp_bytes : int;
  rp_goodput_bytes_s : float;
  rp_tenant_goodput : (string * float) list;
  rp_link_bound_bytes_s : float;
  rp_tapes : (string * string) list;
  rp_alerts : Slo.alert list;
}

(* ------------------------------------------------------------------ *)
(* Built-in SLO rules                                                  *)

(* A tenant whose goodput has collapsed below this fraction of its
   declared budget (once it has completions at all) is starving. *)
let tenant_floor_frac = 0.01

(* DR-drill bounds: an hour of lost writes or of recovery time is the
   conventional "broken" threshold; silent unless a drill shares the
   plane. *)
let dr_bound_s = 3600.0

let done_series v = "fleet.volume." ^ v ^ ".done"

let builtin_rules (spec : Spec.t) =
  let window_rules =
    List.filter_map
      (fun (v : Spec.volume) ->
        if v.Spec.v_deadline_s > 0.0 then
          Some
            (Slo.rule
               ~name:("window-miss." ^ v.Spec.v_name)
               (Slo.Deadline
                  {
                    series = done_series v.Spec.v_name;
                    target = 1.0;
                    by_s = v.Spec.v_deadline_s;
                  }))
        else None)
      spec.Spec.s_volumes
  in
  let tenant_rules =
    List.map
      (fun (t : Spec.tenant) ->
        Slo.rule
          ~name:("tenant-starved." ^ t.Spec.t_name)
          (Slo.Threshold
             {
               metric = "fleet.tenant." ^ t.Spec.t_name ^ ".goodput_bytes_s";
               cmp = Slo.Below;
               bound = tenant_floor_frac *. t.Spec.t_budget_bytes_s;
             }))
      spec.Spec.s_tenants
  in
  window_rules @ tenant_rules
  @ [
      Slo.rule ~name:"drive-storm"
        (Slo.Threshold
           { metric = "fleet.drives_lost"; cmp = Slo.Above; bound = 0.0 });
      Slo.rule ~name:"dr-rpo"
        (Slo.Threshold
           { metric = "repl.rpo_s"; cmp = Slo.Above; bound = dr_bound_s });
      Slo.rule ~name:"dr-rto"
        (Slo.Threshold
           { metric = "repl.rto_s"; cmp = Slo.Above; bound = dr_bound_s });
    ]

(* Deterministic drive choice for a storm: a tiny LCG over the storm
   seed, no host randomness. *)
let storm_victims ~slots storm =
  let n = List.length slots in
  let victims = Hashtbl.create 4 in
  let state = ref ((storm.storm_seed * 2_654_435_761) land max_int) in
  let steps = ref 0 in
  while Hashtbl.length victims < Stdlib.min storm.storm_drives n && !steps < 1000 do
    state := ((!state * 25_214_903_917) + 11) land max_int;
    incr steps;
    Hashtbl.replace victims (!state mod n) ()
  done;
  List.filteri (fun i _ -> Hashtbl.mem victims i) slots

(* Geometry generous enough for the largest fleet volume workloads
   while staying cheap to allocate (block storage is lazy). *)
let volume_data_blocks bytes = Stdlib.max 2048 (bytes / 2048)

(* A lean workload profile: the default profile's wide tree has a large
   minimum footprint, which would swamp a small fleet volume's byte
   target (and the bench's host wall-clock) with mandatory files. *)
let volume_profile seed =
  {
    Generator.default with
    Generator.seed;
    median_file_bytes = 4096.0;
    files_per_dir = 4;
    dirs_per_dir = 2;
    max_depth = 2;
  }

let p_exec = Repro_prof.Prof.probe "fleet.exec_volume"

let exec_volume (v : Spec.volume) =
  Repro_prof.Prof.with_probe p_exec @@ fun () ->
  let vol =
    Volume.create ~label:v.Spec.v_filer
      (Volume.small_geometry ~data_blocks:(volume_data_blocks v.Spec.v_bytes))
  in
  let fs = Fs.mkfs vol in
  ignore
    (Generator.populate
       ~profile:(volume_profile v.Spec.v_seed)
       ~fs ~root:"/data" ~total_bytes:v.Spec.v_bytes ());
  let lib = Library.create ~slots:4 ~label:v.Spec.v_name () in
  let eng = Engine.create ~fs ~libraries:[ lib ] () in
  let entry =
    Engine.backup_job eng
      (Engine.Job.make ~strategy:Strategy.Logical ~subtree:"/data"
         ~label:v.Spec.v_name ())
  in
  let elapsed =
    match Engine.last_stats eng with
    | Some s -> s.Scheduler.p_elapsed
    | None -> 0.0
  in
  let tape =
    let w = Serde.writer () in
    Library.save w lib;
    Serde.contents w
  in
  (entry.Catalog.bytes, elapsed, tape)

type exec = {
  e_volume : Spec.volume;
  e_payload : int;
  e_tape : string;
  e_crc : int;
}

let run ?storm ?resume ?(keep_tapes = false) ?(rules = []) p =
  let spec = p.p_spec in
  let digest = Spec.digest spec in
  let engine =
    if Obs.enabled () then
      match Obs.armed () with
      | Some plane -> Some (Slo.create ~rules:(builtin_rules spec @ rules) plane)
      | None -> None
    else None
  in
  let slo_eval now = Option.iter (fun e -> Slo.eval e ~now) engine in
  let has_deadline =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun (v : Spec.volume) ->
        if v.Spec.v_deadline_s > 0.0 then Hashtbl.replace tbl v.Spec.v_name ())
      spec.Spec.s_volumes;
    fun name -> Hashtbl.mem tbl name
  in
  let drives_lost = ref 0 in
  let prior =
    match resume with
    | None -> Status.empty spec
    | Some st ->
      if st.Status.st_digest <> digest then
        invalid_arg "Fleet.run: status is for a different spec";
      st
  in
  let already = Hashtbl.create 64 in
  List.iter
    (fun (c : Status.completed) -> Hashtbl.replace already c.Status.c_volume ())
    prior.Status.st_completed;
  let todo =
    List.filter
      (fun a -> not (Hashtbl.mem already a.a_volume.Spec.v_name))
      p.p_assignments
  in
  let host_of_key =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun (s, host) -> Hashtbl.replace tbl (Resource_id.to_key s) host)
      p.p_slots;
    fun s -> Hashtbl.find tbl (Resource_id.to_key s)
  in
  let budget_of =
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun (t : Spec.tenant) ->
        Hashtbl.replace tbl t.Spec.t_name t.Spec.t_budget_bytes_s)
      spec.Spec.s_tenants;
    fun name -> Hashtbl.find_opt tbl name
  in
  let goodput_of =
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun (h : Spec.host) ->
        Hashtbl.replace tbl h.Spec.h_name (Link.model_goodput h.Spec.h_link))
      spec.Spec.s_hosts;
    fun name -> Hashtbl.find tbl name
  in
  let done_count = ref 0 in
  let victims =
    match storm with
    | None -> []
    | Some st -> storm_victims ~slots:(List.map fst p.p_slots) st
  in
  let storm_active () =
    match storm with
    | Some st -> !done_count >= st.storm_after
    | None -> false
  in
  let abort_hit () =
    match storm with
    | Some { storm_abort_after = Some k; _ } -> !done_count >= k
    | _ -> false
  in
  let tasks =
    List.map
      (fun a ->
        let v = a.a_volume in
        Scheduler.task ~ready:a.a_ready ~label:v.Spec.v_name
          ~claims:[ Scheduler.One_of a.a_slots ]
          (fun ~now:_ ~granted ->
            if abort_hit () then raise Night_aborted;
            let slot = List.hd granted in
            if
              storm_active ()
              && List.exists (fun s -> Resource_id.equal s slot) victims
            then begin
              incr drives_lost;
              if Obs.enabled () then
                Obs.set_gauge "fleet.drives_lost" (Float.of_int !drives_lost);
              raise (Drive_storm (Resource_id.to_key slot))
            end;
            let payload, dump_elapsed, tape = exec_volume v in
            let fpayload = Float.of_int payload in
            let host = host_of_key slot in
            let demands =
              [
                Scheduler.demand slot dump_elapsed;
                Scheduler.demand (Resource_id.Link host)
                  (fpayload /. goodput_of host);
                Scheduler.demand (Resource_id.Disk v.Spec.v_filer)
                  (fpayload /. Engine.io_model.logical_read_bytes_s);
              ]
              @
              match budget_of v.Spec.v_tenant with
              | Some b ->
                [ Scheduler.demand (Resource_id.Tenant v.Spec.v_tenant)
                    (fpayload /. b) ]
              | None -> []
            in
            ( { e_volume = v; e_payload = payload; e_tape = tape;
                e_crc = Crc32.string tape },
              demands )))
      todo
  in
  let completed = ref [] in
  let tenant_bytes = Hashtbl.create 8 in
  let sampler = Analysis.sampler ~prefix:"fleet" () in
  let on_complete _ (g : exec Scheduler.grant) =
    let e = g.Scheduler.g_value in
    let v = e.e_volume in
    incr done_count;
    let cum =
      Float.of_int e.e_payload
      +. Option.value ~default:0.0 (Hashtbl.find_opt tenant_bytes v.Spec.v_tenant)
    in
    Hashtbl.replace tenant_bytes v.Spec.v_tenant cum;
    if Obs.enabled () then begin
      Obs.sample ~at:g.Scheduler.g_finished "fleet.volumes_done"
        (Float.of_int !done_count);
      if v.Spec.v_tenant <> "" && g.Scheduler.g_finished > 0.0 then
        Obs.sample ~at:g.Scheduler.g_finished
          ("fleet.tenant." ^ v.Spec.v_tenant ^ ".goodput_bytes_s")
          (cum /. g.Scheduler.g_finished);
      if has_deadline v.Spec.v_name then
        Obs.sample ~at:g.Scheduler.g_finished (done_series v.Spec.v_name) 1.0;
      slo_eval g.Scheduler.g_finished
    end;
    completed :=
      {
        Status.c_volume = v.Spec.v_name;
        c_tenant = v.Spec.v_tenant;
        c_host = host_of_key (List.hd g.Scheduler.g_slots);
        c_bytes = e.e_payload;
        c_tape_bytes = String.length e.e_tape;
        c_tape_crc = e.e_crc;
        c_drive = Resource_id.to_key (List.hd g.Scheduler.g_slots);
        c_started = g.Scheduler.g_started;
        c_finished = g.Scheduler.g_finished;
      }
      :: !completed
  in
  let fatal = function Drive_storm _ -> true | _ -> false in
  let outcomes, pstats =
    Scheduler.run_tasks ~fatal ~on_complete
      ~on_interval:(fun ~t0 ~t1 utils ->
        Analysis.sampler_segment sampler ~t0 ~t1 utils;
        slo_eval t1)
      ~slots:(List.map fst p.p_slots)
      tasks
  in
  Analysis.sampler_flush sampler;
  let completed = List.rev !completed in
  let failed = ref [] and unran = ref [] in
  let todo_arr = Array.of_list todo in
  Array.iteri
    (fun i outcome ->
      let name = todo_arr.(i).a_volume.Spec.v_name in
      match outcome with
      | Scheduler.Completed _ -> ()
      | Scheduler.Errored { error; _ } ->
        let msg =
          match error with
          | Drive_storm key -> "drive storm killed " ^ key
          | Night_aborted -> "night aborted by storm"
          | e -> Printexc.to_string e
        in
        failed := (name, msg) :: !failed
      | Scheduler.Unran -> unran := name :: !unran)
    outcomes;
  let elapsed = pstats.Scheduler.p_elapsed in
  let bytes =
    List.fold_left (fun a (c : Status.completed) -> a + c.Status.c_bytes) 0
      completed
  in
  let goodput = if elapsed > 0.0 then Float.of_int bytes /. elapsed else 0.0 in
  let tenant_goodput =
    List.map
      (fun (t : Spec.tenant) ->
        let b =
          Option.value ~default:0.0
            (Hashtbl.find_opt tenant_bytes t.Spec.t_name)
        in
        (t.Spec.t_name, if elapsed > 0.0 then b /. elapsed else 0.0))
      spec.Spec.s_tenants
  in
  let bound = link_bound_bytes_s p in
  if Obs.enabled () then begin
    Obs.set_gauge "fleet.elapsed_s" elapsed;
    Obs.set_gauge "fleet.volumes_completed" (Float.of_int (List.length completed));
    Obs.set_gauge "fleet.volumes_failed" (Float.of_int (List.length !failed));
    Obs.set_gauge "fleet.volumes_unran" (Float.of_int (List.length !unran));
    Obs.set_gauge "fleet.bytes" (Float.of_int bytes);
    Obs.set_gauge "fleet.goodput_bytes_s" goodput;
    Obs.set_gauge "fleet.link_bound_bytes_s" bound;
    List.iter
      (fun (t, g) -> Obs.set_gauge ("fleet.tenant." ^ t ^ ".goodput_bytes_s") g)
      tenant_goodput
  end;
  slo_eval elapsed;
  let tapes =
    if keep_tapes then
      List.filter_map
        (function
          | Scheduler.Completed g ->
            Some
              ( g.Scheduler.g_value.e_volume.Spec.v_name,
                g.Scheduler.g_value.e_tape )
          | _ -> None)
        (Array.to_list outcomes)
    else []
  in
  let report =
    {
      rp_elapsed = elapsed;
      rp_completed = completed;
      rp_failed = List.rev !failed;
      rp_unran = List.rev !unran;
      rp_bytes = bytes;
      rp_goodput_bytes_s = goodput;
      rp_tenant_goodput = tenant_goodput;
      rp_link_bound_bytes_s = bound;
      rp_tapes = tapes;
      rp_alerts =
        (match engine with Some e -> Slo.alerts e | None -> []);
    }
  in
  let status =
    {
      Status.st_digest = digest;
      st_completed = prior.Status.st_completed @ completed;
    }
  in
  (report, status)

let pp_report ppf r =
  Format.fprintf ppf
    "fleet night: %d volumes completed (%d failed, %d unran) in %.1f \
     simulated seconds@."
    (List.length r.rp_completed)
    (List.length r.rp_failed)
    (List.length r.rp_unran)
    r.rp_elapsed;
  Format.fprintf ppf
    "  %d payload bytes, aggregate %.2f MB/s (link bound %.2f MB/s)@."
    r.rp_bytes
    (r.rp_goodput_bytes_s /. 1e6)
    (r.rp_link_bound_bytes_s /. 1e6);
  List.iter
    (fun (t, g) ->
      Format.fprintf ppf "  tenant %-8s goodput %.2f MB/s@." t (g /. 1e6))
    r.rp_tenant_goodput;
  List.iter
    (fun (v, msg) -> Format.fprintf ppf "  failed %-10s %s@." v msg)
    r.rp_failed;
  let fired =
    List.length (List.filter (fun a -> a.Slo.a_kind = Slo.Firing) r.rp_alerts)
  in
  if fired > 0 then
    Format.fprintf ppf "  %d SLO alert(s) fired (%d transitions)@." fired
      (List.length r.rp_alerts)

(* ------------------------------------------------------------------ *)
(* The night report                                                    *)

let jnum x = if Float.is_finite x then Printf.sprintf "%.6g" x else "null"
let jstr s = "\"" ^ Obs.json_escape s ^ "\""

let night_report ?verdict (p : plan) (r : report) ~(status : Status.t) =
  let spec = p.p_spec in
  let finished =
    let tbl = Hashtbl.create 64 in
    List.iter
      (fun (c : Status.completed) ->
        Hashtbl.replace tbl c.Status.c_volume c.Status.c_finished)
      status.Status.st_completed;
    fun name -> Hashtbl.find_opt tbl name
  in
  let attains (v : Spec.volume) =
    match finished v.Spec.v_name with
    | None -> false
    | Some t -> v.Spec.v_deadline_s <= 0.0 || t <= v.Spec.v_deadline_s
  in
  let frac_of = function
    | [] -> 1.0
    | vs ->
      Float.of_int (List.length (List.filter attains vs))
      /. Float.of_int (List.length vs)
  in
  let by sel names =
    List.map
      (fun n ->
        (n, frac_of (List.filter (fun v -> sel v = n) spec.Spec.s_volumes)))
      names
  in
  let tenants =
    by
      (fun (v : Spec.volume) -> v.Spec.v_tenant)
      (List.map (fun (t : Spec.tenant) -> t.Spec.t_name) spec.Spec.s_tenants)
  in
  let hosts =
    by
      (fun (v : Spec.volume) -> v.Spec.v_host)
      (List.map (fun (h : Spec.host) -> h.Spec.h_name) spec.Spec.s_hosts)
  in
  let missed =
    List.filter_map
      (fun (v : Spec.volume) ->
        if v.Spec.v_deadline_s > 0.0 && not (attains v) then
          Some v.Spec.v_name
        else None)
      spec.Spec.s_volumes
  in
  let fracs kvs =
    String.concat "," (List.map (fun (n, f) -> jstr n ^ ":" ^ jnum f) kvs)
  in
  let b = Buffer.create 1024 in
  let add = Buffer.add_string b in
  add "{\"report\":\"NIGHT1\"";
  add (Printf.sprintf ",\"spec_digest\":%d" (Spec.digest spec));
  add (",\"elapsed_s\":" ^ jnum r.rp_elapsed);
  add
    (Printf.sprintf
       ",\"volumes\":{\"total\":%d,\"completed\":%d,\"failed\":%d,\"unran\":%d,\"deadline_missed\":%d}"
       (List.length spec.Spec.s_volumes)
       (List.length status.Status.st_completed)
       (List.length r.rp_failed) (List.length r.rp_unran)
       (List.length missed));
  add
    (",\"attainment\":{\"fleet\":"
    ^ jnum (frac_of spec.Spec.s_volumes)
    ^ ",\"tenants\":{" ^ fracs tenants ^ "},\"hosts\":{" ^ fracs hosts
    ^ "}}");
  add (",\"missed\":[" ^ String.concat "," (List.map jstr missed) ^ "]");
  add
    (",\"failed\":["
    ^ String.concat ","
        (List.map (fun (v, m) -> "[" ^ jstr v ^ "," ^ jstr m ^ "]") r.rp_failed)
    ^ "]");
  add
    (Printf.sprintf
       ",\"goodput\":{\"bytes\":%d,\"bytes_s\":%s,\"link_bound_bytes_s\":%s,\"tenants\":{%s}}"
       r.rp_bytes
       (jnum r.rp_goodput_bytes_s)
       (jnum r.rp_link_bound_bytes_s)
       (fracs r.rp_tenant_goodput));
  add (",\"alerts\":" ^ Slo.journal_json r.rp_alerts);
  add (",\"verdict\":" ^ (match verdict with Some v -> jstr v | None -> "null"));
  add "}";
  Buffer.contents b

let attainment_summary s =
  match Slo.Json.parse s with
  | exception Failure _ -> None
  | j -> (
    match Slo.Json.member "report" j with
    | Some (Slo.Json.Str "NIGHT1") -> (
      match Slo.Json.member "attainment" j with
      | None -> None
      | Some att -> (
        let pairs = function
          | Some (Slo.Json.Obj kvs) ->
            List.filter_map
              (function k, Slo.Json.Num v -> Some (k, v) | _ -> None)
              kvs
          | _ -> []
        in
        match Slo.Json.member "fleet" att with
        | Some (Slo.Json.Num fleet) ->
          Some
            ( fleet,
              pairs (Slo.Json.member "tenants" att),
              pairs (Slo.Json.member "hosts" att) )
        | _ -> None))
    | _ -> None)

module Sim = Repro_sim.Engine
module Resource_id = Repro_sim.Resource_id

type demand = { key : string; work : float }

let demand rid work = { key = Resource_id.to_key rid; work }
let demand_of_resource r work = { key = Repro_sim.Resource.name r; work }

(* ------------------------- multi-resource core ------------------------ *)

type slot = Resource_id.t
type claim = Exactly of slot | One_of of slot list

type 'a task = {
  t_label : string;
  t_ready : float;
  t_claims : claim list;
  t_run : now:float -> granted:slot list -> 'a * demand list;
}

let task ?(ready = 0.0) ~label ~claims run =
  { t_label = label; t_ready = ready; t_claims = claims; t_run = run }

type 'a grant = {
  g_value : 'a;
  g_slots : slot list;
  g_started : float;
  g_finished : float;
}

type 'a task_outcome =
  | Completed of 'a grant
  | Errored of { error : exn; slots : slot list; at : float }
  | Unran

type pool_stats = { p_elapsed : float; p_slots : (slot * float * int) list }

let eps = 1e-9

(* Self-profiling: every solver call counts as one fluid-interval
   recomputation; host wall clock only. *)
let p_solver = Repro_prof.Prof.probe "sim.solver"
let c_recomputes = Repro_prof.Prof.counter "sim.interval_recomputes"

(* Max-min fair rates by progressive filling over string-keyed demand
   vectors. Resources are scanned in sorted key order so the bottleneck
   choice — and thus the rate vector — is deterministic regardless of
   construction order. *)
let fair_share_inner demands =
  let n = Array.length demands in
  let rates = Array.make n 0.0 in
  let keys =
    Array.fold_left
      (fun acc ds ->
        List.fold_left (fun acc (k, w) -> if w > eps then k :: acc else acc) acc ds)
      [] demands
    |> List.sort_uniq String.compare
  in
  let weight i key =
    List.fold_left
      (fun acc (k, w) -> if String.equal k key then acc +. w else acc)
      0.0 demands.(i)
  in
  let residual = Hashtbl.create 16 in
  List.iter (fun k -> Hashtbl.replace residual k 1.0) keys;
  let unfrozen = ref (List.init n Fun.id) in
  let level = ref 0.0 in
  let continue = ref true in
  while !continue && !unfrozen <> [] do
    let best = ref None in
    List.iter
      (fun key ->
        let total_w = List.fold_left (fun acc i -> acc +. weight i key) 0.0 !unfrozen in
        if total_w > eps then begin
          let delta = (Hashtbl.find residual key -. (!level *. total_w)) /. total_w in
          match !best with
          | Some (_, d) when d <= delta -> ()
          | _ -> best := Some (key, delta)
        end)
      keys;
    match !best with
    | None ->
      (* Remaining vectors are all-zero: unconstrained, effectively instant. *)
      List.iter (fun i -> rates.(i) <- 1e12) !unfrozen;
      continue := false
    | Some (bottleneck, delta) ->
      let new_level = !level +. Float.max 0.0 delta in
      let frozen_now, still =
        List.partition (fun i -> weight i bottleneck > eps) !unfrozen
      in
      List.iter
        (fun i ->
          rates.(i) <- new_level;
          List.iter
            (fun (k, w) ->
              if w > eps then
                Hashtbl.replace residual k (Hashtbl.find residual k -. (new_level *. w)))
            demands.(i))
        frozen_now;
      level := new_level;
      unfrozen := still;
      if frozen_now = [] then begin
        List.iter (fun i -> rates.(i) <- Float.max new_level eps) !unfrozen;
        continue := false
      end
  done;
  rates

let fair_share demands =
  let tok = Repro_prof.Prof.enter p_solver in
  let rates = fair_share_inner demands in
  Repro_prof.Prof.leave tok;
  Repro_prof.Prof.bump c_recomputes;
  rates

(* Self-profiling: each fair-share interval recomputation is timed on
   the host wall clock (the solver itself shows up as a child frame). *)
let p_interval = Repro_prof.Prof.probe "sched.interval"
let c_intervals = Repro_prof.Prof.counter "sched.interval_recomputes"

(* One in-flight task: side effects already done, only its simulated
   duration is still being played out. [remaining] is the fraction left. *)
type 'a flight = {
  f_task : int;
  f_slots : slot list;
  f_started : float;
  f_value : 'a;
  f_demands : (string * float) list;
  mutable f_remaining : float;
}

let slot_mem s l = List.exists (Resource_id.equal s) l
let slot_remove s l = List.filter (fun x -> not (Resource_id.equal s x)) l

let run_tasks ?(fatal = fun _ -> false) ?max_active ?on_complete ?on_interval
    ~slots tasks =
  if slots = [] then invalid_arg "Scheduler.run_tasks: empty slot pool";
  let seen = Hashtbl.create 8 in
  List.iter
    (fun s ->
      let k = Resource_id.to_key s in
      if Hashtbl.mem seen k then
        invalid_arg
          (Printf.sprintf "Scheduler.run_tasks: duplicate slot %s in pool" k);
      Hashtbl.add seen k ())
    slots;
  let max_active =
    match max_active with
    | Some k when k >= 1 -> k
    | Some _ -> invalid_arg "Scheduler.run_tasks: max_active must be positive"
    | None -> List.length slots
  in
  let tasks = Array.of_list tasks in
  let n = Array.length tasks in
  let outcomes = Array.make n Unran in
  let sim = Sim.create () in
  let free = ref slots in
  let dead = Hashtbl.create 4 in
  let is_dead s = Hashtbl.mem dead (Resource_id.to_key s) in
  let kill s = Hashtbl.replace dead (Resource_id.to_key s) () in
  let aborted = ref false in
  let waiting = ref (List.init n Fun.id) in
  let active : 'a flight list ref = ref [] in
  let busy = Hashtbl.create 8 in
  let served = Hashtbl.create 8 in
  List.iter
    (fun s ->
      let k = Resource_id.to_key s in
      Hashtbl.replace busy k (ref 0.0);
      Hashtbl.replace served k (ref 0))
    slots;
  (* Grant a task's claims greedily, in claim order, against the free
     list: [Exactly s] takes that very slot, [One_of set] the first free
     slot (free-list order: pool order, then release order) belonging to
     the set. All-or-nothing: on failure the free list is untouched. *)
  let try_grant claims =
    let rec go acc free = function
      | [] -> Some (List.rev acc, free)
      | Exactly s :: rest ->
        if slot_mem s free then go (s :: acc) (slot_remove s free) rest else None
      | One_of set :: rest -> (
        match List.find_opt (fun f -> slot_mem f set) free with
        | Some s -> go (s :: acc) (slot_remove s free) rest
        | None -> None)
    in
    match go [] !free claims with
    | Some (granted, rest) ->
      free := rest;
      Some granted
    | None -> None
  in
  (* A task none of whose claims can ever be satisfied again (a pinned
     slot died, or every slot of a pool died) is dropped from the queue;
     its outcome stays [Unran]. *)
  let doomed claims =
    List.exists
      (function
        | Exactly s -> is_dead s
        | One_of set -> set <> [] && List.for_all is_dead set)
      claims
  in
  let release s = if not (is_dead s) then free := !free @ [ s ] in
  (* Finish a flight at [now]: record its grant, charge its slots' busy
     time, release them, and report it. *)
  let complete now f =
    let g =
      { g_value = f.f_value; g_slots = f.f_slots; g_started = f.f_started; g_finished = now }
    in
    outcomes.(f.f_task) <- Completed g;
    List.iter
      (fun s ->
        let b = Hashtbl.find busy (Resource_id.to_key s) in
        b := !b +. (now -. f.f_started);
        release s)
      f.f_slots;
    match on_complete with Some h -> h f.f_task g | None -> ()
  in
  (* Admit as many ready waiting tasks as free slots and [max_active]
     allow, scanning the queue in order. *)
  let rec admit () =
    if (not !aborted) && List.length !active < max_active && !free <> [] then begin
      let now = Sim.now sim in
      let rec pick acc = function
        | [] -> None
        | j :: rest ->
          if doomed tasks.(j).t_claims then begin
            waiting := List.rev_append acc rest;
            pick [] !waiting
          end
          else if tasks.(j).t_ready > now +. eps then pick (j :: acc) rest
          else (
            match try_grant tasks.(j).t_claims with
            | Some granted ->
              waiting := List.rev_append acc rest;
              Some (j, granted)
            | None -> pick (j :: acc) rest)
      in
      match pick [] !waiting with
      | None -> ()
      | Some (j, granted) ->
        let started = Sim.now sim in
        List.iter
          (fun s -> incr (Hashtbl.find served (Resource_id.to_key s)))
          granted;
        (match tasks.(j).t_run ~now:started ~granted with
        | value, demands ->
          let demands =
            List.filter_map
              (fun d -> if d.work > eps then Some (d.key, d.work) else None)
              demands
          in
          let f =
            {
              f_task = j;
              f_slots = granted;
              f_started = started;
              f_value = value;
              f_demands = demands;
              f_remaining = 1.0;
            }
          in
          (* A task with no demand takes no time: it completes the
             instant it is admitted. *)
          if demands = [] then complete started f else active := !active @ [ f ]
        | exception error ->
          outcomes.(j) <- Errored { error; slots = granted; at = started };
          if fatal error then List.iter kill granted
          else begin
            aborted := true;
            List.iter release granted
          end);
        admit ()
    end
  in
  (* Arm the next completion: solve fair-share rates for the in-flight
     set, advance to the earliest finish, complete everything that
     reaches zero, refill, repeat. A ready-time wake-up admitting new
     flights mid-interval settles the elapsed progress at the old rates
     first, then re-arms (bumping [epoch] to void the stale event). *)
  let epoch = ref 0 in
  let t_solved = ref 0.0 in
  let rates = ref [||] in
  let solved = ref [] in
  (* Charge progress over [t_solved, now) at the solved rates and
     complete every flight that reaches zero. *)
  let settle () =
    let now = Sim.now sim in
    let dt = now -. !t_solved in
    if dt > 0.0 && !solved <> [] then begin
      (* Report the interval that just elapsed: each resource key's
         utilization is the service it delivered per second, summed
         over the in-flight set at the solved rates. *)
      (match on_interval with
      | Some h ->
        let utils = Hashtbl.create 8 in
        List.iteri
          (fun i f ->
            List.iter
              (fun (key, work) ->
                let cur =
                  match Hashtbl.find_opt utils key with
                  | Some u -> u
                  | None -> 0.0
                in
                Hashtbl.replace utils key (cur +. (!rates.(i) *. work)))
              f.f_demands)
          !solved;
        h ~t0:!t_solved ~t1:now
          (List.sort compare (Hashtbl.fold (fun k u acc -> (k, u) :: acc) utils []))
      | None -> ());
      List.iteri
        (fun i f -> f.f_remaining <- f.f_remaining -. (!rates.(i) *. dt))
        !solved
    end;
    t_solved := now;
    let finished, still =
      List.partition (fun f -> f.f_remaining <= eps) !active
    in
    active := still;
    List.iter (complete now) finished
  in
  let rec arm () =
    match !active with
    | [] -> ()
    | flights ->
      let tok = Repro_prof.Prof.enter p_interval in
      let r =
        fair_share
          (Array.of_list (List.map (fun f -> f.f_demands) flights))
      in
      let now = Sim.now sim in
      let _, dt =
        List.fold_left
          (fun (i, acc) f ->
            let d = f.f_remaining /. Float.max r.(i) eps in
            (* Late in a long schedule the clock's float step exceeds
               [eps]: a finish closer than one step can never advance the
               clock, so the flight is done now and the next settle
               completes it. *)
            if now +. d <= now then f.f_remaining <- 0.0;
            (i + 1, Float.min acc d))
          (0, infinity) flights
      in
      let dt = Float.max dt 0.0 in
      Repro_prof.Prof.leave tok;
      Repro_prof.Prof.bump c_intervals;
      rates := r;
      solved := flights;
      t_solved := now;
      incr epoch;
      let e = !epoch in
      Sim.schedule_in sim dt (fun () ->
          if e = !epoch then begin
            incr epoch;
            settle ();
            admit ();
            arm ()
          end)
  in
  (* Wake the admission scan when a not-yet-ready task's window opens.
     Settling first keeps the in-flight progress accounting exact even
     though the armed completion event is now stale. *)
  let ready_times =
    List.sort_uniq compare
      (List.filter_map
         (fun t -> if t.t_ready > eps then Some t.t_ready else None)
         (Array.to_list tasks))
  in
  List.iter
    (fun r ->
      Sim.schedule_at sim r (fun () ->
          if not !aborted then begin
            if !active <> [] then begin
              incr epoch;
              settle ()
            end;
            admit ();
            arm ()
          end))
    ready_times;
  admit ();
  arm ();
  Sim.run sim;
  let p_slots =
    List.map
      (fun s ->
        let k = Resource_id.to_key s in
        (s, !(Hashtbl.find busy k), !(Hashtbl.find served k)))
      slots
  in
  (outcomes, { p_elapsed = Sim.now sim; p_slots })

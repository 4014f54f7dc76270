module Resource = Repro_sim.Resource
module Resource_id = Repro_sim.Resource_id
module Obs = Repro_obs.Obs

type demand = { resource : Resource.t; work : float; bytes : int }

let demand ?(bytes = 0) resource work =
  if work < 0.0 then invalid_arg "Instrument.demand: negative work";
  { resource; work; bytes }

type stage = { label : string; demands : demand list }

let stage label demands = { label; demands }

type stream = { stream_label : string; stages : stage list }

type stage_summary = {
  stage_label : string;
  start : float;
  finish : float;
  busy : (string * float) list;
  stage_bytes : (string * int) list;
}

type report = {
  elapsed : float;
  stages : stage_summary list;
  stream_finish : (string * float) list;
}

(* Each observed region is one span on the armed obs plane AND one
   pipeline stage; the measured region is identical, so Tables 2-5 and a
   trace of the same run agree by construction. The per-resource demands
   are annotated onto the span as it closes. *)
let collect ~resources f =
  let stages = ref [] in
  let observe label work =
    Obs.with_span label (fun () ->
        let before =
          List.map (fun r -> (r, Resource.busy r, Resource.bytes r)) resources
        in
        work ();
        let demands =
          List.filter_map
            (fun (r, busy0, bytes0) ->
              let dbusy = Resource.busy r -. busy0 in
              let dbytes = Resource.bytes r - bytes0 in
              if dbusy > 0.0 || dbytes > 0 then Some (demand ~bytes:dbytes r dbusy)
              else None)
            before
        in
        Obs.annotate
          (List.map
             (fun d -> ("busy:" ^ Resource.name d.resource, Obs.Float d.work))
             demands);
        stages := stage label demands :: !stages)
  in
  let result = f observe in
  (result, List.rev !stages)

let add_demand stages ~stage:label d =
  List.map
    (fun s -> if String.equal s.label label then stage s.label (s.demands @ [ d ]) else s)
    stages

let scale_stages stages factor =
  List.map
    (fun s ->
      stage s.label
        (List.map
           (fun d ->
             demand
               ~bytes:(Float.to_int (Float.of_int d.bytes *. factor))
               d.resource (d.work *. factor))
           s.demands))
    stages

let retarget stages ~from_prefix ~to_resource =
  List.map
    (fun s ->
      stage s.label
        (List.map
           (fun d ->
             if String.starts_with ~prefix:from_prefix (Resource.name d.resource) then
               demand ~bytes:d.bytes to_resource d.work
             else d)
           s.demands))
    stages

(* Per-resource sums of a positive demand amount, sorted by name. *)
let per_resource amount add zero demands =
  List.fold_left
    (fun acc d ->
      let k = Resource.name d.resource and v = amount d in
      if v <= zero then acc
      else
        (k, Option.fold ~none:v ~some:(add v) (List.assoc_opt k acc))
        :: List.remove_assoc k acc)
    [] demands
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Every stream holds one exclusive slot and queues its stages behind it
   in order, so stage k+1 is admitted the instant stage k completes and
   concurrent stages share resources at the scheduler's max-min rates.
   The summaries are rebuilt from the grants: a label's window spans its
   first admission to its last completion, its busy seconds and bytes
   are the demand vectors of every stage carrying it. *)
let run streams =
  if streams = [] then { elapsed = 0.0; stages = []; stream_finish = [] }
  else begin
    let slot i = Resource_id.Key (Printf.sprintf "stream#%d" i) in
    let queue =
      Array.of_list
        (List.concat
           (List.mapi
              (fun i (s : stream) -> List.map (fun st -> (i, st)) s.stages)
              streams))
    in
    let tasks =
      List.map
        (fun (i, st) ->
          Scheduler.task ~label:st.label ~claims:[ Scheduler.Exactly (slot i) ]
            (fun ~now:_ ~granted:_ ->
              ( (),
                List.map
                  (fun d -> Scheduler.demand_of_resource d.resource d.work)
                  st.demands )))
        (Array.to_list queue)
    in
    let outcomes, pool =
      Scheduler.run_tasks ~slots:(List.mapi (fun i _ -> slot i) streams) tasks
    in
    (* Each stage's (start, finish) is its grant; [last] ends as each
       stream's finish. *)
    let window =
      Array.map
        (function
          | Scheduler.Completed g -> (g.g_started, g.g_finished)
          | Scheduler.Errored _ | Scheduler.Unran -> assert false)
        outcomes
    in
    let last = Array.make (List.length streams) 0.0 in
    Array.iteri (fun j (i, _) -> last.(i) <- snd window.(j)) queue;
    let all = List.init (Array.length queue) Fun.id in
    (* Start order, ties in queue order. *)
    let started =
      List.stable_sort (fun a b -> Float.compare (fst window.(a)) (fst window.(b))) all
    in
    let labels =
      List.fold_left
        (fun acc j ->
          let l = (snd queue.(j)).label in
          if List.mem l acc then acc else l :: acc)
        [] started
      |> List.rev
    in
    let summary label =
      let mine = List.filter (fun j -> String.equal (snd queue.(j)).label label) started in
      let demands = List.concat_map (fun j -> (snd queue.(j)).demands) mine in
      {
        stage_label = label;
        start = fst window.(List.hd mine);
        finish = List.fold_left (fun acc j -> Float.max acc (snd window.(j))) 0.0 mine;
        busy = per_resource (fun d -> d.work) ( +. ) 0.0 demands;
        stage_bytes = per_resource (fun d -> d.bytes) ( + ) 0 demands;
      }
    in
    {
      elapsed = pool.Scheduler.p_elapsed;
      stages = List.map summary labels;
      stream_finish = List.mapi (fun i (s : stream) -> (s.stream_label, last.(i))) streams;
    }
  end

let stage_elapsed s = Float.max 0.0 (s.finish -. s.start)

let stage_utilization s resource =
  let elapsed = stage_elapsed s in
  if elapsed <= 0.0 then 0.0
  else match List.assoc_opt resource s.busy with Some b -> b /. elapsed | None -> 0.0

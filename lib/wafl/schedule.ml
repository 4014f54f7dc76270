(* The paper's common schedule: an hourly snapshot every 4 hours kept
   for 24 hours, a nightly one kept for 2 days. *)
let hourly_interval = 4.0 *. 3600.0
let hourly_keep = 6
let nightly_interval = 24.0 *. 3600.0
let nightly_keep = 2

type t = {
  fs : Fs.t;
  mutable next_seq : int;
  mutable last_hourly : float;
  mutable last_nightly : float;
}

let parse_seq ~prefix name =
  let pl = String.length prefix in
  if String.length name > pl && String.sub name 0 pl = prefix then
    int_of_string_opt (String.sub name pl (String.length name - pl))
  else None

let owned ~prefix fs =
  List.filter_map
    (fun (s : Fs.snap_info) ->
      match parse_seq ~prefix s.Fs.name with
      | Some seq -> Some (seq, s.Fs.name, s.Fs.created)
      | None -> None)
    (Fs.snapshots fs)
  |> List.sort (fun (a, _, _) (b, _, _) -> compare b a)

let create fs =
  let hourlies = owned ~prefix:"hourly." fs in
  let nightlies = owned ~prefix:"nightly." fs in
  let max_seq l = List.fold_left (fun acc (s, _, _) -> Stdlib.max acc s) (-1) l in
  let newest_time l = match l with (_, _, t) :: _ -> t | [] -> neg_infinity in
  {
    fs;
    next_seq = 1 + Stdlib.max (max_seq hourlies) (max_seq nightlies);
    last_hourly = newest_time hourlies;
    last_nightly = newest_time nightlies;
  }

let prune t ~prefix ~keep =
  let all = owned ~prefix t.fs in
  List.iteri
    (fun i (_, name, _) -> if i >= keep then Fs.snapshot_delete t.fs name)
    all

(* Make room when the global snapshot table is full: retire the oldest
   scheduler-owned snapshot of either class. *)
let make_room t =
  if List.length (Fs.snapshots t.fs) >= Layout.max_snapshots then begin
    let mine = owned ~prefix:"hourly." t.fs @ owned ~prefix:"nightly." t.fs in
    match List.sort (fun (a, _, _) (b, _, _) -> compare a b) mine with
    | (_, oldest, _) :: _ -> Fs.snapshot_delete t.fs oldest
    | [] -> ()
  end

let take t ~prefix ~now =
  make_room t;
  let name = Printf.sprintf "%s%d" prefix t.next_seq in
  t.next_seq <- t.next_seq + 1;
  Fs.snapshot_create t.fs name;
  ignore now;
  name

let tick t ~now =
  let created = ref [] in
  if now -. t.last_nightly >= nightly_interval then begin
    created := take t ~prefix:"nightly." ~now :: !created;
    t.last_nightly <- now;
    prune t ~prefix:"nightly." ~keep:nightly_keep
  end;
  if now -. t.last_hourly >= hourly_interval then begin
    created := take t ~prefix:"hourly." ~now :: !created;
    t.last_hourly <- now;
    prune t ~prefix:"hourly." ~keep:hourly_keep
  end;
  List.rev !created

let hourlies t = List.map (fun (_, name, _) -> name) (owned ~prefix:"hourly." t.fs)
let nightlies t = List.map (fun (_, name, _) -> name) (owned ~prefix:"nightly." t.fs)

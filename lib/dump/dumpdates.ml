type t = (string * int, float) Hashtbl.t

let create () : t = Hashtbl.create 16

let record t ~label ~level ~date =
  if level < 0 || level > 9 then invalid_arg "Dumpdates.record: level";
  Hashtbl.replace t (label, level) date

let get t ~label ~level = Hashtbl.find_opt t (label, level)

let base_date t ~label ~level =
  let best = ref 0.0 in
  for l = 0 to level - 1 do
    match get t ~label ~level:l with
    | Some d when d > !best -> best := d
    | Some _ | None -> ()
  done;
  !best

let encode t =
  let open Repro_util.Serde in
  let w = writer () in
  let items =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) t [] |> List.sort compare
  in
  write_list U32
    (fun w ((label, level), date) ->
      write_string w label;
      write_u8 w level;
      write_float w date)
    w items;
  contents w

let decode s =
  let open Repro_util.Serde in
  let t = create () in
  List.iter
    (fun (key, date) -> Hashtbl.replace t key date)
    (read_list U32
       (fun r ->
         let label = read_string r in
         let level = read_u8 r in
         ((label, level), read_float r))
       (reader s));
  t

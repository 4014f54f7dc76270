module Prng = Repro_util.Prng
module Fs = Repro_wafl.Fs
module Inode = Repro_wafl.Inode

type churn = {
  seed : int;
  rounds : int;
  batch : int;
  delete_weight : int;
  create_weight : int;
  overwrite_weight : int;
  append_weight : int;
  rename_weight : int;
}

let default_churn =
  {
    seed = 99;
    rounds = 20;
    batch = 50;
    delete_weight = 3;
    create_weight = 3;
    overwrite_weight = 2;
    append_weight = 1;
    rename_weight = 1;
  }

type stats = {
  deletes : int;
  creates : int;
  overwrites : int;
  appends : int;
  renames : int;
}

type op = Delete | Create | Overwrite | Append | Rename

let pick_op rng c =
  let total =
    c.delete_weight + c.create_weight + c.overwrite_weight + c.append_weight
    + c.rename_weight
  in
  let n = Prng.int rng total in
  if n < c.delete_weight then Delete
  else if n < c.delete_weight + c.create_weight then Create
  else if n < c.delete_weight + c.create_weight + c.overwrite_weight then Overwrite
  else if n < c.delete_weight + c.create_weight + c.overwrite_weight + c.append_weight
  then Append
  else Rename

let p_age = Repro_prof.Prof.probe "workload.age"

let age ?(churn = default_churn) ~fs ~root () =
  Repro_prof.Prof.with_probe p_age @@ fun () ->
  let c = churn in
  let rng = Prng.create c.seed in
  let files = ref (Array.of_list (Generator.file_paths fs root)) in
  let created = ref 0 in
  let stats = ref { deletes = 0; creates = 0; overwrites = 0; appends = 0; renames = 0 } in
  let random_file () =
    if Array.length !files = 0 then None else Some (Prng.choose rng !files)
  in
  let remove_from_list path =
    files := Array.of_list (List.filter (fun p -> p <> path) (Array.to_list !files))
  in
  let add_to_list path = files := Array.append !files [| path |] in
  let payload n =
    let b = Bytes.create n in
    Prng.fill rng b 0 n;
    Bytes.unsafe_to_string b
  in
  for _round = 1 to c.rounds do
    for _op = 1 to c.batch do
      match pick_op rng c with
      | Delete -> (
        match random_file () with
        | Some path when Array.length !files > 4 ->
          Fs.unlink fs path;
          remove_from_list path;
          stats := { !stats with deletes = !stats.deletes + 1 }
        | Some _ | None -> ())
      | Create ->
        let dir =
          match random_file () with
          | Some f -> Filename.dirname f
          | None -> root
        in
        let path = Printf.sprintf "%s/aged%05d.dat" dir !created in
        incr created;
        if Fs.lookup fs path = None then begin
          ignore (Fs.create fs path ~perms:0o644);
          Fs.write fs path ~offset:0 (payload (Prng.int_in rng 500 60_000));
          add_to_list path;
          stats := { !stats with creates = !stats.creates + 1 }
        end
      | Overwrite -> (
        match random_file () with
        | Some path ->
          let size = (Fs.getattr fs path).Inode.size in
          let len = Stdlib.min size 16_384 in
          if len > 0 then begin
            Fs.write fs path ~offset:(Prng.int rng (Stdlib.max 1 (size - len)))
              (payload len);
            stats := { !stats with overwrites = !stats.overwrites + 1 }
          end
        | None -> ())
      | Append -> (
        match random_file () with
        | Some path ->
          let size = (Fs.getattr fs path).Inode.size in
          Fs.write fs path ~offset:size (payload (Prng.int_in rng 100 20_000));
          stats := { !stats with appends = !stats.appends + 1 }
        | None -> ())
      | Rename -> (
        match random_file () with
        | Some path ->
          let dst = Filename.dirname path ^ Printf.sprintf "/ren%05d.dat" !created in
          incr created;
          if Fs.lookup fs dst = None then begin
            Fs.rename fs path dst;
            remove_from_list path;
            add_to_list dst;
            stats := { !stats with renames = !stats.renames + 1 }
          end
        | None -> ())
    done;
    (* End each round at a consistency point, so the next round's writes
       are forced into whatever free space the churn left behind. *)
    Fs.cp fs
  done;
  !stats

let fragmentation fs root =
  let view = Fs.active_view fs in
  let pairs = ref 0 in
  let broken = ref 0 in
  List.iter
    (fun path ->
      match Fs.View.lookup view path with
      | None -> ()
      | Some ino ->
        let attr = Fs.View.getattr view ino in
        let n = Inode.nblocks attr in
        let prev = ref None in
        for lbn = 0 to n - 1 do
          match Fs.View.block_address view ino lbn with
          | Some vbn ->
            (match !prev with
            | Some p ->
              incr pairs;
              if vbn <> p + 1 then incr broken
            | None -> ());
            prev := Some vbn
          | None -> prev := None
        done)
    (Generator.file_paths fs root);
  if !pairs = 0 then 0.0 else Float.of_int !broken /. Float.of_int !pairs

type entry = {
  id : int;
  strategy : Strategy.t;
  label : string;
  level : int;
  date : float;
  bytes : int;
  drive : int;
  stream : int;
  streams : int list;
  part_drives : int list;
  part_hosts : string list;
  media : string list;
  snapshot : string;
  base_snapshot : string;
  degraded : int;
}

type part_done = {
  part : int;
  stream : int;
  drive : int;
  bytes : int;
  degraded : int;
}

type checkpoint = {
  ck_strategy : Strategy.t;
  ck_label : string;
  ck_level : int;
  ck_date : float;
  ck_subtree : string;
  ck_drive : int;
  ck_drives : int list;
  ck_parts : int;
  ck_snapshot : string;
  ck_base_snapshot : string;
  ck_media : string list;
  ck_done : part_done list; (* ascending part order *)
}

type t = {
  mutable next_id : int;
  mutable items : entry list; (* newest first *)
  mutable checkpoints : checkpoint list; (* keyed (strategy, label) *)
}

let create () = { next_id = 1; items = []; checkpoints = [] }

let add t entry =
  let entry = { entry with id = t.next_id } in
  t.next_id <- t.next_id + 1;
  t.items <- entry :: t.items;
  entry

let entries t = List.rev t.items
let find t ~id = List.find_opt (fun e -> e.id = id) t.items

let ck_matches ~strategy ~label ck =
  ck.ck_strategy = strategy && String.equal ck.ck_label label

let set_checkpoint t ck =
  t.checkpoints <-
    ck
    :: List.filter
         (fun c -> not (ck_matches ~strategy:ck.ck_strategy ~label:ck.ck_label c))
         t.checkpoints

let find_checkpoint t ~strategy ~label =
  List.find_opt (ck_matches ~strategy ~label) t.checkpoints

let clear_checkpoint t ~strategy ~label =
  t.checkpoints <-
    List.filter (fun c -> not (ck_matches ~strategy ~label c)) t.checkpoints

let checkpoints t = List.rev t.checkpoints

let restore_chain t ~label ~strategy =
  let matching =
    List.filter
      (fun e -> String.equal e.label label && e.strategy = strategy)
      (entries t)
  in
  (* Newest full backup. *)
  let fulls = List.filter (fun e -> e.level = 0) matching in
  match List.rev fulls with
  | [] -> []
  | full :: _ ->
    let after = List.filter (fun e -> e.id > full.id && e.level > 0) matching in
    (match strategy with
    | Strategy.Physical ->
      (* Follow the base-snapshot chain from the full. *)
      let rec follow base acc =
        match
          List.find_opt (fun e -> String.equal e.base_snapshot base) after
        with
        | Some next when not (List.memq next acc) ->
          follow next.snapshot (next :: acc)
        | Some _ | None -> List.rev acc
      in
      full :: follow full.snapshot []
    | Strategy.Logical ->
      (* Classic dump rules: walk forward keeping entries whose level
         exceeds the last kept entry's level; a repeat of a level
         supersedes earlier dumps at or above it. *)
      let chain =
        List.fold_left
          (fun kept e ->
            let kept = List.filter (fun k -> k.level < e.level) kept in
            kept @ [ e ])
          [] after
      in
      full :: chain)

let strategy_byte = function Strategy.Logical -> 0 | Strategy.Physical -> 1

let strategy_of_byte = function
  | 0 -> Strategy.Logical
  | 1 -> Strategy.Physical
  | k -> raise (Repro_util.Serde.Corrupt (Printf.sprintf "bad strategy %d" k))

let encode t =
  let open Repro_util.Serde in
  let w = writer () in
  write_u32 w t.next_id;
  write_list U32
    (fun w e ->
      write_u32 w e.id;
      write_u8 w (strategy_byte e.strategy);
      write_string w e.label;
      write_u8 w e.level;
      write_float w e.date;
      write_int w e.bytes;
      write_u16 w e.drive;
      write_list U16 write_u16 w e.streams;
      write_list U16 write_u16 w e.part_drives;
      write_list U16 write_string w e.part_hosts;
      write_list U16 write_string w e.media;
      write_string w e.snapshot;
      write_string w e.base_snapshot;
      write_u32 w e.degraded)
    w (entries t);
  write_list U16
    (fun w ck ->
      write_u8 w (strategy_byte ck.ck_strategy);
      write_string w ck.ck_label;
      write_u8 w ck.ck_level;
      write_float w ck.ck_date;
      write_string w ck.ck_subtree;
      write_u16 w ck.ck_drive;
      write_list U16 write_u16 w ck.ck_drives;
      write_u16 w ck.ck_parts;
      write_string w ck.ck_snapshot;
      write_string w ck.ck_base_snapshot;
      write_list U16 write_string w ck.ck_media;
      write_list U16
        (fun w d ->
          write_u16 w d.part;
          write_u16 w d.stream;
          write_u16 w d.drive;
          write_int w d.bytes;
          write_u32 w d.degraded)
        w ck.ck_done)
    w (checkpoints t);
  contents w

let decode ?(version = 4) s =
  let open Repro_util.Serde in
  if version < 2 || version > 4 then
    invalid_arg (Printf.sprintf "Catalog.decode: unknown layout v%d" version);
  let r = reader s in
  let next_id = read_u32 r in
  let items =
    read_list U32
      (fun r ->
        let id = read_u32 r in
        let strategy = strategy_of_byte (read_u8 r) in
        let label = read_string r in
        let level = read_u8 r in
        let date = read_float r in
        let bytes = read_int r in
        let drive = read_u16 r in
        let streams = read_list U16 read_u16 r in
        let part_drives =
          if version >= 3 then read_list U16 read_u16 r
          else
            (* v2 predates multi-drive part placement: every stream of an
               entry lived on its single recorded drive. *)
            List.map (fun _ -> drive) streams
        in
        let part_hosts =
          if version >= 4 then read_list U16 read_string r
          else
            (* Pre-network catalogs only knew locally attached drives. *)
            List.map (fun _ -> "") streams
        in
        let media = read_list U16 read_string r in
        let snapshot = read_string r in
        let base_snapshot = read_string r in
        let degraded = read_u32 r in
        let stream = match streams with s :: _ -> s | [] -> 0 in
        {
          id;
          strategy;
          label;
          level;
          date;
          bytes;
          drive;
          stream;
          streams;
          part_drives;
          part_hosts;
          media;
          snapshot;
          base_snapshot;
          degraded;
        })
      r
  in
  let cks =
    read_list U16
      (fun r ->
        let ck_strategy = strategy_of_byte (read_u8 r) in
        let ck_label = read_string r in
        let ck_level = read_u8 r in
        let ck_date = read_float r in
        let ck_subtree = read_string r in
        let ck_drive = read_u16 r in
        let ck_drives = if version >= 3 then read_list U16 read_u16 r else [] in
        let ck_parts = read_u16 r in
        let ck_snapshot = read_string r in
        let ck_base_snapshot = read_string r in
        let ck_media = read_list U16 read_string r in
        let ck_done =
          read_list U16
            (fun r ->
              let part = read_u16 r in
              let stream = read_u16 r in
              let drive = if version >= 3 then read_u16 r else ck_drive in
              let bytes = read_int r in
              let degraded = read_u32 r in
              { part; stream; drive; bytes; degraded })
            r
        in
        {
          ck_strategy;
          ck_label;
          ck_level;
          ck_date;
          ck_subtree;
          ck_drive;
          ck_drives;
          ck_parts;
          ck_snapshot;
          ck_base_snapshot;
          ck_media;
          ck_done;
        })
      r
  in
  { next_id; items = List.rev items; checkpoints = List.rev cks }

(* Host-side self-profiler. See prof.mli for the contract; the two
   load-bearing constraints are (1) with nothing armed on any domain a
   hook is one load and a compare, and (2) nothing here may read or
   write simulation state — only Unix.gettimeofday, Gc counters, and
   the profile's own arrays, which is what makes arming provably
   zero-feedback. *)

module Ambient = Repro_util.Ambient

type probe = int
type counter = int

(* Probes and counters are interned process-wide (not per-profile) so
   sites can intern at module-init time, before any profile exists; that
   is the only time these tables are written, so domains share them. *)

let intern tbl names name =
  match Hashtbl.find_opt tbl name with
  | Some id -> id
  | None ->
    let id = Hashtbl.length tbl in
    Hashtbl.replace tbl name id;
    let n = Array.length !names in
    if id >= n then begin
      let bigger = Array.make (max 8 (2 * n)) "" in
      Array.blit !names 0 bigger 0 n;
      names := bigger
    end;
    !names.(id) <- name;
    id

let probe_tbl : (string, int) Hashtbl.t = Hashtbl.create 32
let probe_names = ref [||]
let probe name = intern probe_tbl probe_names name
let probe_name id = !probe_names.(id)
let counter_tbl : (string, int) Hashtbl.t = Hashtbl.create 32
let counter_names = ref [||]
let counter name = intern counter_tbl counter_names name
let counter_name id = !counter_names.(id)

(* Call-tree node: children are a list keyed by probe id — fan-out per
   node is a handful of probes, so a scan beats a hashtable here. *)
type node = {
  n_probe : int; (* -1 for the root *)
  mutable n_calls : int;
  mutable n_total_s : float;
  mutable n_self_s : float;
  mutable n_alloc_b : float;
  mutable n_children : node list;
}

let fresh_node n_probe =
  { n_probe; n_calls = 0; n_total_s = 0.; n_self_s = 0.; n_alloc_b = 0.; n_children = [] }

(* Flat per-probe totals; f_depth tracks live recursion so total time
   is only charged at the outermost frame (no double counting). *)
type flat = {
  mutable f_calls : int;
  mutable f_total_s : float;
  mutable f_self_s : float;
  mutable f_alloc_b : float;
  mutable f_depth : int;
}

let fresh_flat () = { f_calls = 0; f_total_s = 0.; f_self_s = 0.; f_alloc_b = 0.; f_depth = 0 }

type t = {
  mutable on : bool;
  mutable armed_at : float;
  mutable wall_s : float; (* accumulated over closed armed windows *)
  root : node;
  mutable flats : flat array; (* indexed by probe id *)
  (* Frame stack as parallel arrays: node, wall at entry, allocated
     bytes at entry, and accumulated child wall/alloc to subtract. *)
  mutable depth : int;
  mutable st_node : node array;
  mutable st_t0 : float array;
  mutable st_a0 : float array;
  mutable st_child_s : float array;
  mutable st_child_b : float array;
  mutable counters : int array; (* indexed by counter id *)
  mutable peaks : int array;
  (* Gc deltas: snapshot when a window opens, accumulate when it closes. *)
  mutable gc_at_arm : Gc.stat;
  mutable g_minor_words : float;
  mutable g_promoted_words : float;
  mutable g_major_words : float;
  mutable g_minor_collections : int;
  mutable g_major_collections : int;
  mutable g_compactions : int;
}

let create () =
  {
    on = false;
    armed_at = 0.;
    wall_s = 0.;
    root = fresh_node (-1);
    flats = [||];
    depth = 0;
    st_node = Array.make 16 (fresh_node (-1));
    st_t0 = Array.make 16 0.;
    st_a0 = Array.make 16 0.;
    st_child_s = Array.make 16 0.;
    st_child_b = Array.make 16 0.;
    counters = [||];
    peaks = [||];
    gc_at_arm = Gc.quick_stat ();
    g_minor_words = 0.;
    g_promoted_words = 0.;
    g_major_words = 0.;
    g_minor_collections = 0;
    g_major_collections = 0;
    g_compactions = 0;
  }

let current : t Ambient.t = Ambient.make ()
let enabled () = Ambient.get current <> None
let now () = Unix.gettimeofday ()

let grow_stack t =
  let n = Array.length t.st_node in
  let m = 2 * n in
  let gn = Array.make m t.root
  and gt = Array.make m 0.
  and ga = Array.make m 0.
  and gs = Array.make m 0.
  and gb = Array.make m 0. in
  Array.blit t.st_node 0 gn 0 n;
  Array.blit t.st_t0 0 gt 0 n;
  Array.blit t.st_a0 0 ga 0 n;
  Array.blit t.st_child_s 0 gs 0 n;
  Array.blit t.st_child_b 0 gb 0 n;
  t.st_node <- gn;
  t.st_t0 <- gt;
  t.st_a0 <- ga;
  t.st_child_s <- gs;
  t.st_child_b <- gb

let grow_ints arr want =
  let n = Array.length !arr in
  if want > n then begin
    let bigger = Array.make (max want (max 8 (2 * n))) 0 in
    Array.blit !arr 0 bigger 0 n;
    arr := bigger
  end

let flat_for t p =
  let n = Array.length t.flats in
  if p >= n then begin
    let bigger = Array.init (max (p + 1) (max 8 (2 * n))) (fun _ -> fresh_flat ()) in
    Array.blit t.flats 0 bigger 0 n;
    t.flats <- bigger
  end;
  t.flats.(p)

let child_for parent p =
  let rec find = function
    | [] ->
      let c = fresh_node p in
      parent.n_children <- c :: parent.n_children;
      c
    | c :: rest -> if c.n_probe = p then c else find rest
  in
  find parent.n_children

let enter p =
  match Ambient.get current with
  | None -> 0
  | Some t ->
    let d = t.depth in
    if d >= Array.length t.st_node then grow_stack t;
    let parent = if d = 0 then t.root else t.st_node.(d - 1) in
    let node = child_for parent p in
    let f = flat_for t p in
    f.f_depth <- f.f_depth + 1;
    t.st_node.(d) <- node;
    t.st_child_s.(d) <- 0.;
    t.st_child_b.(d) <- 0.;
    t.st_a0.(d) <- Gc.allocated_bytes ();
    t.st_t0.(d) <- now ();
    t.depth <- d + 1;
    d + 1

let pop t =
  let d = t.depth - 1 in
  let dt = now () -. t.st_t0.(d) in
  let db = Gc.allocated_bytes () -. t.st_a0.(d) in
  let node = t.st_node.(d) in
  (* Child totals come from separate clock reads, so clamp self at 0. *)
  let self_s = Float.max 0. (dt -. t.st_child_s.(d)) in
  let self_b = Float.max 0. (db -. t.st_child_b.(d)) in
  node.n_calls <- node.n_calls + 1;
  node.n_total_s <- node.n_total_s +. dt;
  node.n_self_s <- node.n_self_s +. self_s;
  node.n_alloc_b <- node.n_alloc_b +. self_b;
  let f = t.flats.(node.n_probe) in
  f.f_depth <- f.f_depth - 1;
  f.f_calls <- f.f_calls + 1;
  if f.f_depth = 0 then f.f_total_s <- f.f_total_s +. dt;
  f.f_self_s <- f.f_self_s +. self_s;
  f.f_alloc_b <- f.f_alloc_b +. self_b;
  t.depth <- d;
  if d > 0 then begin
    t.st_child_s.(d - 1) <- t.st_child_s.(d - 1) +. dt;
    t.st_child_b.(d - 1) <- t.st_child_b.(d - 1) +. db
  end

let leave tok =
  if tok > 0 then
    match Ambient.get current with
    | None -> ()
    | Some t ->
      (* Pop to the token's depth: frames opened above it (a raise
         skipped their leave) are closed on the way, mirroring obs
         span unwinding. *)
      while t.depth >= tok do
        pop t
      done

let with_probe p f =
  let tok = enter p in
  match f () with
  | v ->
    leave tok;
    v
  | exception e ->
    leave tok;
    raise e

let add c n =
  match Ambient.get current with
  | None -> ()
  | Some t ->
    if c >= Array.length t.counters then begin
      let arr = ref t.counters in
      grow_ints arr (c + 1);
      t.counters <- !arr
    end;
    t.counters.(c) <- t.counters.(c) + n

let bump c = add c 1

let peak c v =
  match Ambient.get current with
  | None -> ()
  | Some t ->
    if c >= Array.length t.peaks then begin
      let arr = ref t.peaks in
      grow_ints arr (c + 1);
      t.peaks <- !arr
    end;
    if v > t.peaks.(c) then t.peaks.(c) <- v

(* Closing an armed window accumulates its wall time and Gc deltas into
   [t] and closes frames left open (shouldn't happen with the token
   discipline, but a raise straight out of an armed region can). *)
let close_window t =
  while t.depth > 0 do
    pop t
  done;
  let g1 = Gc.quick_stat () in
  let g0 = t.gc_at_arm in
  t.wall_s <- t.wall_s +. (now () -. t.armed_at);
  t.g_minor_words <- t.g_minor_words +. (g1.Gc.minor_words -. g0.Gc.minor_words);
  t.g_promoted_words <- t.g_promoted_words +. (g1.Gc.promoted_words -. g0.Gc.promoted_words);
  t.g_major_words <- t.g_major_words +. (g1.Gc.major_words -. g0.Gc.major_words);
  t.g_minor_collections <-
    t.g_minor_collections + g1.Gc.minor_collections - g0.Gc.minor_collections;
  t.g_major_collections <-
    t.g_major_collections + g1.Gc.major_collections - g0.Gc.major_collections;
  t.g_compactions <- t.g_compactions + g1.Gc.compactions - g0.Gc.compactions;
  t.on <- false

let with_armed t f =
  t.on <- true;
  t.gc_at_arm <- Gc.quick_stat ();
  t.armed_at <- now ();
  Fun.protect ~finally:(fun () -> close_window t) (fun () -> Ambient.with_ current t f)

(* ------------------------------ reports ------------------------------ *)

type row = {
  r_name : string;
  r_calls : int;
  r_total_s : float;
  r_self_s : float;
  r_alloc_b : float;
}

type gc = {
  g_minor_words : float;
  g_promoted_words : float;
  g_major_words : float;
  g_minor_collections : int;
  g_major_collections : int;
  g_compactions : int;
}

type summary = {
  s_wall_s : float;
  s_rows : row list;
  s_counters : (string * int) list;
  s_peaks : (string * int) list;
  s_gc : gc;
}

let summary t =
  (* Include the live window so reports while armed are meaningful. *)
  let live_s = if t.on then now () -. t.armed_at else 0. in
  let live = if t.on then Some (Gc.quick_stat ()) else None in
  let dgc f = match live with Some g1 -> f g1 t.gc_at_arm | None -> 0. in
  let dgi f = match live with Some g1 -> f g1 t.gc_at_arm | None -> 0 in
  let rows = ref [] in
  Array.iteri
    (fun p f ->
      if f.f_calls > 0 then
        rows :=
          {
            r_name = probe_name p;
            r_calls = f.f_calls;
            r_total_s = f.f_total_s;
            r_self_s = f.f_self_s;
            r_alloc_b = f.f_alloc_b;
          }
          :: !rows)
    t.flats;
  let rows =
    List.sort
      (fun a b ->
        match Float.compare b.r_self_s a.r_self_s with
        | 0 -> String.compare a.r_name b.r_name
        | c -> c)
      !rows
  in
  let named arr name_of =
    let out = ref [] in
    Array.iteri (fun id v -> if v <> 0 then out := (name_of id, v) :: !out) arr;
    List.sort (fun (a, _) (b, _) -> String.compare a b) !out
  in
  {
    s_wall_s = t.wall_s +. live_s;
    s_rows = rows;
    s_counters = named t.counters counter_name;
    s_peaks = named t.peaks counter_name;
    s_gc =
      {
        g_minor_words = t.g_minor_words +. dgc (fun a b -> a.Gc.minor_words -. b.Gc.minor_words);
        g_promoted_words =
          t.g_promoted_words +. dgc (fun a b -> a.Gc.promoted_words -. b.Gc.promoted_words);
        g_major_words = t.g_major_words +. dgc (fun a b -> a.Gc.major_words -. b.Gc.major_words);
        g_minor_collections =
          t.g_minor_collections + dgi (fun a b -> a.Gc.minor_collections - b.Gc.minor_collections);
        g_major_collections =
          t.g_major_collections + dgi (fun a b -> a.Gc.major_collections - b.Gc.major_collections);
        g_compactions = t.g_compactions + dgi (fun a b -> a.Gc.compactions - b.Gc.compactions);
      };
  }

let pp_summary ppf t =
  let s = summary t in
  Format.fprintf ppf "@[<v>== self-profile (host wall clock) ==@,";
  Format.fprintf ppf "armed %.3f s@," s.s_wall_s;
  if s.s_rows <> [] then begin
    Format.fprintf ppf "@,%-22s %10s %12s %12s %12s@," "probe" "calls" "total-ms" "self-ms"
      "alloc-KiB";
    List.iter
      (fun r ->
        Format.fprintf ppf "%-22s %10d %12.3f %12.3f %12.1f@," r.r_name r.r_calls
          (1e3 *. r.r_total_s) (1e3 *. r.r_self_s)
          (r.r_alloc_b /. 1024.))
      s.s_rows
  end;
  if s.s_counters <> [] then begin
    Format.fprintf ppf "@,counters:@,";
    List.iter (fun (n, v) -> Format.fprintf ppf "  %-28s %12d@," n v) s.s_counters
  end;
  if s.s_peaks <> [] then begin
    Format.fprintf ppf "@,peaks:@,";
    List.iter (fun (n, v) -> Format.fprintf ppf "  %-28s %12d@," n v) s.s_peaks
  end;
  let g = s.s_gc in
  Format.fprintf ppf "@,gc: minor %.0f w, promoted %.0f w, major %.0f w, %d minor / %d major"
    g.g_minor_words g.g_promoted_words g.g_major_words g.g_minor_collections g.g_major_collections;
  if g.g_compactions > 0 then Format.fprintf ppf ", %d compactions" g.g_compactions;
  Format.fprintf ppf "@,@]"

let folded t =
  let s = summary t in
  let lines = ref [] in
  let rec walk path node =
    let path =
      if node.n_probe < 0 then path else path ^ ";" ^ probe_name node.n_probe
    in
    if node.n_probe >= 0 then begin
      let us = int_of_float (Float.round (1e6 *. node.n_self_s)) in
      lines := Printf.sprintf "%s %d" path us :: !lines
    end;
    List.iter (walk path) node.n_children
  in
  (* Unattributed time: armed wall not inside any probe frame. *)
  let in_probes = List.fold_left (fun a c -> a +. c.n_total_s) 0. t.root.n_children in
  let rest = Float.max 0. (s.s_wall_s -. in_probes) in
  lines := Printf.sprintf "all %d" (int_of_float (Float.round (1e6 *. rest))) :: !lines;
  walk "all" t.root;
  let lines = List.sort String.compare !lines in
  String.concat "\n" lines ^ "\n"

let jsonl t =
  let s = summary t in
  let b = Buffer.create 1024 in
  let g = s.s_gc in
  Buffer.add_string b
    (Printf.sprintf
       "{\"type\":\"meta\",\"wall_s\":%.6f,\"gc\":{\"minor_words\":%.0f,\"promoted_words\":%.0f,\"major_words\":%.0f,\"minor_collections\":%d,\"major_collections\":%d,\"compactions\":%d}}\n"
       s.s_wall_s g.g_minor_words g.g_promoted_words g.g_major_words g.g_minor_collections
       g.g_major_collections g.g_compactions);
  List.iter
    (fun r ->
      Buffer.add_string b
        (Printf.sprintf
           "{\"type\":\"probe\",\"name\":%S,\"calls\":%d,\"total_s\":%.6f,\"self_s\":%.6f,\"alloc_b\":%.0f}\n"
           r.r_name r.r_calls r.r_total_s r.r_self_s r.r_alloc_b))
    s.s_rows;
  List.iter
    (fun (n, v) ->
      Buffer.add_string b (Printf.sprintf "{\"type\":\"counter\",\"name\":%S,\"value\":%d}\n" n v))
    s.s_counters;
  List.iter
    (fun (n, v) ->
      Buffer.add_string b (Printf.sprintf "{\"type\":\"peak\",\"name\":%S,\"value\":%d}\n" n v))
    s.s_peaks;
  Buffer.contents b

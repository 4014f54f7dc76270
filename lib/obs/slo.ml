(* Deterministic SLO evaluation and alerting over a recorded or
   recording plane.

   The engine is intentionally dumb: it holds no clock and schedules
   nothing. Whoever owns the simulated timeline (the fleet scheduler's
   interval hook, a post-hoc replay of a finished trace) feeds it
   evaluation instants, and each rule's condition is recomputed from the
   bound plane at that instant. Because the plane is a pure function of
   the workload and the instants are a pure function of the schedule,
   the alert journal is byte-identical across same-seed runs — the same
   contract every exporter in this library carries. *)

type cmp = Above | Below

type condition =
  | Threshold of { metric : string; cmp : cmp; bound : float }
  | Burn_rate of { series : string; window_s : float; cmp : cmp; bound : float }
  | Absence of { metric : string; after_s : float }
  | Deadline of { series : string; target : float; by_s : float }

type rule = { r_name : string; r_condition : condition }

let rule ~name cond = { r_name = name; r_condition = cond }

(* ------------------------------------------------------------------ *)
(* SLO1 rule files                                                     *)

exception Parse_error of { line : int; msg : string }

let fail ~line fmt = Printf.ksprintf (fun msg -> raise (Parse_error { line; msg })) fmt
let fnum = Printf.sprintf "%.17g"

let render_rule r =
  match r.r_condition with
  | Threshold { metric; cmp; bound } ->
    Printf.sprintf "threshold %s metric=%s %s=%s" r.r_name metric
      (match cmp with Above -> "above" | Below -> "below")
      (fnum bound)
  | Burn_rate { series; window_s; cmp; bound } ->
    Printf.sprintf "burn %s series=%s window_s=%s %s=%s" r.r_name series
      (fnum window_s)
      (match cmp with Above -> "above" | Below -> "below")
      (fnum bound)
  | Absence { metric; after_s } ->
    Printf.sprintf "absence %s metric=%s after_s=%s" r.r_name metric
      (fnum after_s)
  | Deadline { series; target; by_s } ->
    Printf.sprintf "deadline %s series=%s target=%s by_s=%s" r.r_name series
      (fnum target) (fnum by_s)

let render_rules rs =
  let b = Buffer.create 256 in
  Buffer.add_string b "slo1\n";
  List.iter
    (fun r ->
      Buffer.add_string b (render_rule r);
      Buffer.add_char b '\n')
    rs;
  Buffer.contents b

let split_words s = String.split_on_char ' ' s |> List.filter (fun w -> w <> "")

let parse_kvs ~line fields =
  List.map
    (fun f ->
      match String.index_opt f '=' with
      | Some i -> (String.sub f 0 i, String.sub f (i + 1) (String.length f - i - 1))
      | None -> fail ~line "expected key=value, got %S" f)
    fields

let str_field ~line kvs k =
  match List.assoc_opt k kvs with
  | Some v when v <> "" -> v
  | Some _ -> fail ~line "field %s is empty" k
  | None -> fail ~line "missing field %s" k

let float_field ~line kvs k =
  let v = str_field ~line kvs k in
  match float_of_string_opt v with
  | Some f when Float.is_finite f -> f
  | _ -> fail ~line "field %s is not a number" k

let cmp_field ~line kvs =
  match (List.assoc_opt "above" kvs, List.assoc_opt "below" kvs) with
  | Some _, Some _ -> fail ~line "give either above= or below=, not both"
  | Some _, None -> (Above, float_field ~line kvs "above")
  | None, Some _ -> (Below, float_field ~line kvs "below")
  | None, None -> fail ~line "missing field above= or below="

let parse_rules text =
  let seen_magic = ref false in
  let rules = ref [] in
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
      | [ "slo1" ] when not !seen_magic -> seen_magic := true
      | _ when not !seen_magic -> fail ~line "expected the slo1 magic line first"
      | kind :: name :: fields ->
        let kvs = parse_kvs ~line fields in
        let cond =
          match kind with
          | "threshold" ->
            let cmp, bound = cmp_field ~line kvs in
            Threshold { metric = str_field ~line kvs "metric"; cmp; bound }
          | "burn" ->
            let cmp, bound = cmp_field ~line kvs in
            let window_s = float_field ~line kvs "window_s" in
            if window_s <= 0.0 then fail ~line "window_s must be positive";
            Burn_rate { series = str_field ~line kvs "series"; window_s; cmp; bound }
          | "absence" ->
            Absence
              {
                metric = str_field ~line kvs "metric";
                after_s = float_field ~line kvs "after_s";
              }
          | "deadline" ->
            let by_s = float_field ~line kvs "by_s" in
            if by_s < 0.0 then fail ~line "by_s must be nonnegative";
            Deadline
              {
                series = str_field ~line kvs "series";
                target = float_field ~line kvs "target";
                by_s;
              }
          | k -> fail ~line "unknown rule kind %S" k
        in
        rules := { r_name = name; r_condition = cond } :: !rules
      | [ k ] -> fail ~line "rule %S needs a name" k)
    (String.split_on_char '\n' text);
  if not !seen_magic then fail ~line:1 "expected the slo1 magic line first";
  List.rev !rules

(* ------------------------------------------------------------------ *)
(* Alerts and the journal                                              *)

type kind = Firing | Resolved

type alert = { a_rule : string; a_kind : kind; a_t : float; a_value : float }

let kind_name = function Firing -> "firing" | Resolved -> "resolved"

(* %.6g like the plane's exporters; nan/inf are not JSON. *)
let jnum f = if Float.is_finite f then Printf.sprintf "%.6g" f else "null"

let json_escape = Obs.json_escape

let journal_json alerts =
  let b = Buffer.create 512 in
  Buffer.add_string b "{\"journal\":\"SLO1\",\"alerts\":[";
  List.iteri
    (fun i a ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "{\"rule\":\"%s\",\"kind\":\"%s\",\"t_s\":%s,\"value\":%s}"
           (json_escape a.a_rule) (kind_name a.a_kind) (jnum a.a_t)
           (jnum a.a_value)))
    alerts;
  Buffer.add_string b "]}";
  Buffer.contents b

let pp_journal ppf alerts =
  if alerts = [] then Format.fprintf ppf "alert journal: empty@."
  else begin
    Format.fprintf ppf "alert journal: %d transitions@." (List.length alerts);
    List.iter
      (fun a ->
        Format.fprintf ppf "  %10.3fs  %-8s %-32s value %.6g@." a.a_t
          (kind_name a.a_kind) a.a_rule a.a_value)
      alerts
  end

(* ------------------------------------------------------------------ *)
(* The engine                                                          *)

type state = { st_rule : rule; mutable st_firing : bool }

type t = {
  plane : Obs.t;
  mutable states : state list;  (** rule order *)
  mutable journal : alert list;  (** newest first *)
}

let create ?(rules = []) plane =
  { plane; states = List.map (fun r -> { st_rule = r; st_firing = false }) rules;
    journal = [] }

let alerts t = List.rev t.journal

let firing t =
  List.filter_map
    (fun s -> if s.st_firing then Some s.st_rule.r_name else None)
    t.states

(* Current value of a metric at [now]: gauge, else the newest series
   point at or before now, else a nonzero counter. Counters report
   their cumulative total — meaningful for threshold rules over e.g.
   fault.injected, where any nonzero count is the signal. *)
(* Series first: a series point is indexed by simulated time, so both
   live evaluation and post-hoc {!replay} read the value as of [now]. A
   gauge only holds its latest value — consulting it before the series
   would make every replayed threshold see the end-of-run state. *)
let value_at plane ~now name =
  match Obs.series_last plane ~at:now name with
  | Some (_, v) -> Some v
  | None -> (
    match Obs.gauge_value plane name with
    | Some v -> Some v
    | None ->
      let c = Obs.counter_value plane name in
      if c <> 0 then Some (Float.of_int c) else None)

let present plane ~now name =
  match value_at plane ~now name with Some _ -> true | None -> false

let compare_to cmp bound v =
  match cmp with Above -> v > bound | Below -> v < bound

(* The condition's truth and the value the journal records for the
   transition. *)
let evaluate plane ~now = function
  | Threshold { metric; cmp; bound } -> (
    match value_at plane ~now metric with
    | Some v -> (compare_to cmp bound v, v)
    | None -> (false, Float.nan))
  | Burn_rate { series; window_s; cmp; bound } -> (
    let pts =
      List.filter
        (fun (ts, _) -> ts <= now +. 1e-12)
        (Obs.series_since plane ~t0:(now -. window_s) series)
    in
    match (pts, List.rev pts) with
    | (t0, v0) :: _, (t1, v1) :: _ when t1 > t0 ->
      let rate = (v1 -. v0) /. (t1 -. t0) in
      (compare_to cmp bound rate, rate)
    | _ -> (false, Float.nan))
  | Absence { metric; after_s } ->
    if present plane ~now metric then (false, 0.0)
    else (now >= after_s, 0.0)
  | Deadline { series; target; by_s } -> (
    match Obs.series_last plane ~at:now series with
    | Some (_, v) when v >= target -> (false, v)
    | Some (_, v) -> (now >= by_s, v)
    | None -> (now >= by_s, 0.0))

let eval t ~now =
  List.iter
    (fun s ->
      let truth, v = evaluate t.plane ~now s.st_rule.r_condition in
      if truth && not s.st_firing then begin
        s.st_firing <- true;
        t.journal <-
          { a_rule = s.st_rule.r_name; a_kind = Firing; a_t = now; a_value = v }
          :: t.journal
      end
      else if (not truth) && s.st_firing then begin
        s.st_firing <- false;
        t.journal <-
          { a_rule = s.st_rule.r_name; a_kind = Resolved; a_t = now; a_value = v }
          :: t.journal
      end)
    t.states

(* Post-hoc evaluation of a finished trace: the instants where a rule
   could change state are the points of the series it references plus
   its own time boundary. Gauges and counters carry no history, so a
   replayed threshold over them is an end-state check — documented in
   docs/SLO.md. *)
let replay ?upto t =
  let times = ref [] in
  let add ts = times := ts :: !times in
  List.iter
    (fun s ->
      match s.st_rule.r_condition with
      | Threshold { metric; _ } | Absence { metric; _ } ->
        List.iter (fun (ts, _) -> add ts) (Obs.series t.plane metric);
        (match s.st_rule.r_condition with
        | Absence { after_s; _ } -> add after_s
        | _ -> ())
      | Burn_rate { series; _ } | Deadline { series; _ } ->
        List.iter (fun (ts, _) -> add ts) (Obs.series t.plane series);
        (match s.st_rule.r_condition with
        | Deadline { by_s; _ } -> add by_s
        | _ -> ()))
    t.states;
  (match upto with Some u -> add u | None -> ());
  let times = List.sort_uniq compare (List.filter (fun ts -> ts >= 0.0) !times) in
  let times =
    match upto with
    | Some u -> List.filter (fun ts -> ts <= u) times
    | None -> times
  in
  List.iter (fun now -> eval t ~now) times

let default_job_rules () =
  [
    rule ~name:"tape-silent"
      (Absence { metric = "tape.write.ops"; after_s = 0.0 });
    rule ~name:"faults-injected"
      (Threshold { metric = "fault.injected"; cmp = Above; bound = 0.0 });
    rule ~name:"retry-budget"
      (Threshold { metric = "fault.retries"; cmp = Above; bound = 3.0 });
  ]

(* ------------------------------------------------------------------ *)
(* A minimal JSON reader for the plane's own artifacts                 *)

module Json = struct
  type v =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of v list
    | Obj of (string * v) list

  (* A recursive-descent parser over the grammar this library's own
     exporters emit (plus whitespace); not a general validator, but it
     rejects anything structurally malformed. *)
  let parse s =
    let n = String.length s in
    let pos = ref 0 in
    let bad msg = failwith (Printf.sprintf "json: %s at byte %d" msg !pos) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some got when got = c -> advance ()
      | _ -> bad (Printf.sprintf "expected %C" c)
    in
    let literal word v =
      if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
      then begin
        pos := !pos + String.length word;
        v
      end
      else bad "bad literal"
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        match peek () with
        | None -> bad "unterminated string"
        | Some '"' -> advance ()
        | Some '\\' ->
          advance ();
          (match peek () with
          | Some '"' -> Buffer.add_char b '"'
          | Some '\\' -> Buffer.add_char b '\\'
          | Some '/' -> Buffer.add_char b '/'
          | Some 'n' -> Buffer.add_char b '\n'
          | Some 't' -> Buffer.add_char b '\t'
          | Some 'r' -> Buffer.add_char b '\r'
          | Some 'b' -> Buffer.add_char b '\b'
          | Some 'f' -> Buffer.add_char b '\012'
          | Some 'u' ->
            (* The exporters only escape control bytes; decode the
               low code points they emit and keep anything else raw. *)
            if !pos + 4 >= n then bad "short \\u escape";
            let hex = String.sub s (!pos + 1) 4 in
            (match int_of_string_opt ("0x" ^ hex) with
            | Some cp when cp < 128 -> Buffer.add_char b (Char.chr cp)
            | Some _ -> Buffer.add_string b ("\\u" ^ hex)
            | None -> bad "bad \\u escape");
            pos := !pos + 4
          | _ -> bad "bad escape");
          advance ();
          go ()
        | Some c ->
          Buffer.add_char b c;
          advance ();
          go ()
      in
      go ();
      Buffer.contents b
    in
    let parse_number () =
      let start = !pos in
      let numchar = function
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while (match peek () with Some c -> numchar c | None -> false) do
        advance ()
      done;
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> f
      | None -> bad "bad number"
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec fields acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
              advance ();
              fields ((k, v) :: acc)
            | Some '}' ->
              advance ();
              List.rev ((k, v) :: acc)
            | _ -> bad "expected , or }"
          in
          Obj (fields [])
        end
      | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
              advance ();
              items (v :: acc)
            | Some ']' ->
              advance ();
              List.rev (v :: acc)
            | _ -> bad "expected , or ]"
          in
          Arr (items [])
        end
      | Some '"' -> Str (parse_string ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some _ -> Num (parse_number ())
      | None -> bad "empty input"
    in
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then bad "trailing bytes";
    v

  let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
end

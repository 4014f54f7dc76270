(* Order statistics and the result line. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples";
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Python's [statistics.quantiles xs ~n:4] (method "exclusive"), the
   spread the benchmark's acceptance is judged by. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Stats.quartiles: need at least two samples";
  let m = ld + 1 in
  let q i =
    let j = Stdlib.max 1 (Stdlib.min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. Float.of_int (4 - delta)) +. (a.(j) *. Float.of_int delta)) /. 4.0
  in
  (q 1, q 2, q 3)

(* Nearest-rank percentile, [p10] in tenths of a percent (990 = p99);
   integer rank arithmetic so p99 of 1000 samples is rank 990 exactly. *)
let rank ~n p10 = Stdlib.max 1 (((p10 * n) + 999) / 1000)

let percentile xs p10 =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  a.(rank ~n p10 - 1)

(* The highest of the usual percentiles that still has at least [beyond]
   samples above it: the tail a sample of this size can support. *)
let tail ?(beyond = 10) xs =
  let n = List.length xs in
  List.find_map
    (fun p10 -> if n - rank ~n p10 >= beyond then Some (p10, percentile xs p10) else None)
    [ 999; 990; 950; 900; 750; 500 ]

let is_alnum = function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false

let valid_name s =
  let n = String.length s in
  n >= 1 && n <= 64 && is_alnum s.[0]
  && String.for_all (fun c -> is_alnum c || c = '_' || c = '.' || c = '-') s

let valid_unit s =
  let n = String.length s in
  n >= 1 && n <= 16
  && String.for_all
       (fun c -> is_alnum c || c = '_' || c = '/' || c = '%' || c = '.' || c = '-')
       s

type metric = { name : string; unit : string; value : float }

(* The one JSON object the benchmark prints last. Values keep all their
   digits; a malformed name or a non-finite value is a bug in the
   benchmark, never something to print. *)
let result_line ~correct ~attempted ~failed metrics =
  let field m =
    if not (valid_name m.name) then invalid_arg ("Stats.result_line: bad name " ^ m.name);
    if not (valid_unit m.unit) then invalid_arg ("Stats.result_line: bad unit " ^ m.unit);
    if not (Float.is_finite m.value) then
      invalid_arg ("Stats.result_line: non-finite value for " ^ m.name);
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.name m.value m.unit
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " (List.map field metrics))

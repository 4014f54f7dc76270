(* perfbench: run one workload and print its result line.

     main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]

   --trace 0 prints the end-to-end metrics of untraced iterations;
   --trace 1 prints the per-layer metrics of a traced run. A human
   summary goes to stderr; the last line of stdout is the JSON result. *)

open Perfbench

let workloads : (string * (module Harness.WORKLOAD)) list =
  [
    (Fleet_night.name, (module Fleet_night));
    (Aged_volume.name, (module Aged_volume));
    (Remote_incremental.name, (module Remote_incremental));
  ]

let usage () =
  Printf.eprintf "usage: main.exe --workload {%s} [--seed N] [--seconds S] [--trace 0|1]\n"
    (String.concat "|" (List.map fst workloads));
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref false in
  let rec parse = function
    | "--workload" :: w :: rest -> workload := w; parse rest
    | "--seed" :: n :: rest ->
      (match int_of_string_opt n with Some n -> seed := n | None -> usage ());
      parse rest
    | "--seconds" :: s :: rest ->
      (match float_of_string_opt s with Some s when s >= 0.0 -> seconds := s | _ -> usage ());
      parse rest
    | "--trace" :: ("0" | "1" as t) :: rest -> trace := t = "1"; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let w = match List.assoc_opt !workload workloads with Some w -> w | None -> usage () in
  let r = Harness.measure w ~seed:!seed ~seconds:!seconds ~trace:!trace in
  List.iter
    (fun m -> Printf.eprintf "  %-40s %14.6g %s\n" m.Stats.name m.Stats.value m.Stats.unit)
    r.Harness.metrics;
  print_endline
    (Stats.result_line ~correct:r.Harness.correct ~attempted:r.Harness.attempted
       ~failed:r.Harness.failed r.Harness.metrics)

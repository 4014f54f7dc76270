module Obs = Repro_obs.Obs

let attempts = 4
let base_s = 1.0
let multiplier = 2.0

let backoff ~attempt =
  if attempt <= 1 then base_s else base_s *. (multiplier ** Float.of_int (attempt - 1))

let run ?(charge = fun _ -> ()) ?(cleanup = fun _ -> ()) ~label f =
  let rec go attempt =
    let sp =
      Obs.span_begin "attempt"
        ~attrs:[ ("what", Obs.Str label); ("attempt", Obs.Int attempt) ]
    in
    match f () with
    | v ->
      Obs.span_end sp;
      v
    | exception (Fault.Transient { device; _ } as e)
      when attempt < attempts ->
      cleanup e;
      let delay = backoff ~attempt in
      let seq = Fault.note_retry ~device ~what:label ~attempt ~delay_s:delay in
      Obs.span_end sp
        ~attrs:
          [ ("transient", Obs.Bool true); ("retry_journal_seq", Obs.Int seq) ];
      Obs.io ~op:"retry.backoff" ~device ~bytes:0 delay;
      charge delay;
      go (attempt + 1)
    | exception e ->
      Obs.span_end sp ~attrs:[ ("error", Obs.Str (Printexc.to_string e)) ];
      raise e
  in
  go 1

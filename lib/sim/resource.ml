type t = { name : string; mutable busy : float; mutable bytes : int }

let create name = { name; busy = 0.0; bytes = 0 }
let name t = t.name

let charge t ?(bytes = 0) secs =
  if secs < 0.0 then invalid_arg "Resource.charge: negative time";
  t.busy <- t.busy +. secs;
  t.bytes <- t.bytes + bytes

let busy t = t.busy
let bytes t = t.bytes

let reset t =
  t.busy <- 0.0;
  t.bytes <- 0

let utilization t ~elapsed = if elapsed <= 0.0 then 0.0 else t.busy /. elapsed

let rate_mb_s t ~elapsed =
  if elapsed <= 0.0 then 0.0 else Float.of_int t.bytes /. 1_000_000.0 /. elapsed

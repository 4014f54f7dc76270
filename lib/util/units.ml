let mib = 1024 * 1024

let mb_per_s ~bytes ~seconds =
  if seconds <= 0.0 then 0.0 else Float.of_int bytes /. 1_000_000.0 /. seconds

let gb_per_hour ~bytes ~seconds =
  if seconds <= 0.0 then 0.0
  else Float.of_int bytes /. 1_000_000_000.0 /. (seconds /. 3600.0)

type t = {
  mutable count : int;
  mutable total : float;
  mutable min : float;
  mutable max : float;
}

let create () = { count = 0; total = 0.0; min = infinity; max = neg_infinity }

let add t x =
  t.count <- t.count + 1;
  t.total <- t.total +. x;
  if x < t.min then t.min <- x;
  if x > t.max then t.max <- x

let count t = t.count
let mean t = if t.count = 0 then 0.0 else t.total /. Float.of_int t.count
let min t = if t.count = 0 then 0.0 else t.min
let max t = if t.count = 0 then 0.0 else t.max

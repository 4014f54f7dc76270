type t = { mutable now : float }

let create () = { now = 0.0 }
let now t = t.now

let advance t dt =
  if dt < 0.0 then invalid_arg "Clock.advance: negative step";
  t.now <- t.now +. dt

let advance_to t when_ =
  if when_ < t.now -. 1e-9 then invalid_arg "Clock.advance_to: backwards";
  if when_ > t.now then t.now <- when_

type 'a t = 'a option Domain.DLS.key

let armed = Atomic.make 0
let make () = Domain.DLS.new_key (fun () -> None)
let[@inline] get s = if Atomic.get armed = 0 then None else Domain.DLS.get s

let with_ s v f =
  let prev = Domain.DLS.get s in
  Domain.DLS.set s (Some v);
  Atomic.incr armed;
  Fun.protect
    ~finally:(fun () ->
      Atomic.decr armed;
      Domain.DLS.set s prev)
    f

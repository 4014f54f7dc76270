let nop () = ()

type t = {
  mutable times : float array;  (* flat float array: no per-event boxing *)
  mutable seqs : int array;
  mutable actions : (unit -> unit) array;
  mutable size : int;
  mutable next_seq : int;
}

let initial_cap = 16

let create () =
  {
    times = Array.make initial_cap 0.0;
    seqs = Array.make initial_cap 0;
    actions = Array.make initial_cap nop;
    size = 0;
    next_seq = 0;
  }

let length t = t.size
let is_empty t = t.size = 0

(* Strict (time, seq) order. Seqs are distinct, so this is exactly the
   oracle heap's [entry_le a b && not (entry_le b a)]. Indices are
   in [0, size) at every call site, hence the unchecked accesses. *)
let[@inline] lt t i j =
  let ti = Array.unsafe_get t.times i and tj = Array.unsafe_get t.times j in
  ti < tj || (ti = tj && Array.unsafe_get t.seqs i < Array.unsafe_get t.seqs j)

let[@inline] swap t i j =
  let tm = Array.unsafe_get t.times i in
  Array.unsafe_set t.times i (Array.unsafe_get t.times j);
  Array.unsafe_set t.times j tm;
  let sq = Array.unsafe_get t.seqs i in
  Array.unsafe_set t.seqs i (Array.unsafe_get t.seqs j);
  Array.unsafe_set t.seqs j sq;
  let ac = Array.unsafe_get t.actions i in
  Array.unsafe_set t.actions i (Array.unsafe_get t.actions j);
  Array.unsafe_set t.actions j ac

let grow t =
  let cap = Array.length t.times in
  if t.size = cap then begin
    let ncap = cap * 2 in
    let nt = Array.make ncap 0.0
    and ns = Array.make ncap 0
    and na = Array.make ncap nop in
    Array.blit t.times 0 nt 0 t.size;
    Array.blit t.seqs 0 ns 0 t.size;
    Array.blit t.actions 0 na 0 t.size;
    t.times <- nt;
    t.seqs <- ns;
    t.actions <- na
  end

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if lt t i parent then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let m = if l < t.size && lt t l i then l else i in
  let m = if r < t.size && lt t r m then r else m in
  if m <> i then begin
    swap t i m;
    sift_down t m
  end

let push t time action =
  grow t;
  let i = t.size in
  t.times.(i) <- time;
  t.seqs.(i) <- t.next_seq;
  t.actions.(i) <- action;
  t.next_seq <- t.next_seq + 1;
  t.size <- i + 1;
  sift_up t i

let min_time t =
  if t.size = 0 then invalid_arg "Eventq.min_time: empty";
  t.times.(0)

let pop t =
  if t.size = 0 then invalid_arg "Eventq.pop: empty";
  let action = t.actions.(0) in
  let n = t.size - 1 in
  t.size <- n;
  if n > 0 then begin
    t.times.(0) <- t.times.(n);
    t.seqs.(0) <- t.seqs.(n);
    t.actions.(0) <- t.actions.(n)
  end;
  (* drop the closure reference so finished events can be collected *)
  t.actions.(n) <- nop;
  if n > 1 then sift_down t 0;
  action

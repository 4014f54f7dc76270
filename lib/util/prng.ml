(* The splitmix64 state, unboxed in an 8-byte buffer: a mutable [int64]
   field would box a fresh state on every draw. *)
type t = Bytes.t

let golden_gamma = 0x9e3779b97f4a7c15L

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 (mix64 (Int64.of_int seed));
  t

let[@inline] next t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 s;
  mix64 s

let int64 t = next t

(* 61 random bits: the range [0, 2^61) is comfortably representable in
   OCaml's 63-bit native int, including as an exclusive bound. *)
let bit_range = 1 lsl 61
let[@inline] bits t = Int64.to_int (Int64.shift_right_logical (next t) 3)

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int";
  (* Rejection sampling to avoid modulo bias. *)
  let limit = bit_range - (bit_range mod bound) in
  let v = ref (bits t) in
  while !v >= limit do
    v := bits t
  done;
  !v mod bound

(* [int t 256] is [bits t mod 256], since 256 divides 2^61 and so never
   rejects: the low byte of [next t lsr 3], one draw per byte. *)
let fill t b off len =
  if off < 0 || len < 0 || off > Bytes.length b - len then invalid_arg "Prng.fill";
  let s = ref (Bytes.get_int64_ne t 0) in
  for i = off to off + len - 1 do
    s := Int64.add !s golden_gamma;
    Bytes.unsafe_set b i
      (Char.unsafe_chr (Int64.to_int (Int64.shift_right_logical (mix64 !s) 3) land 0xff))
  done;
  Bytes.set_int64_ne t 0 !s

let int_in t lo hi =
  if hi < lo then invalid_arg "Prng.int_in";
  lo + int t (hi - lo + 1)

let float t bound = bound *. (Float.of_int (bits t) /. Float.of_int bit_range)
let bool t = Int64.logand (next t) 1L = 1L

let choose t a =
  if Array.length a = 0 then invalid_arg "Prng.choose";
  a.(int t (Array.length a))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let uniform_open t =
  (* Uniform in (0, 1): never returns 0, safe as a log argument. *)
  (Float.of_int (bits t) +. 1.0) /. (Float.of_int bit_range +. 2.0)

let exponential t ~mean = -.mean *. Float.log (uniform_open t)

let lognormal t ~mu ~sigma =
  let u1 = uniform_open t and u2 = uniform_open t in
  let z = Float.sqrt (-2.0 *. Float.log u1) *. Float.cos (2.0 *. Float.pi *. u2) in
  Float.exp (mu +. (sigma *. z))

let build_zipf_cdf ~n ~s =
  if n <= 0 then invalid_arg "Prng.zipf";
  let cdf = Array.make n 0.0 in
  let total = ref 0.0 in
  for k = 1 to n do
    total := !total +. (1.0 /. (Float.of_int k ** s));
    cdf.(k - 1) <- !total
  done;
  let total = !total in
  Array.map (fun x -> x /. total) cdf

let sample_cdf cdf t =
  let u = uniform_open t in
  (* Binary search for the first index with cdf >= u. *)
  let rec search lo hi =
    if lo >= hi then lo + 1
    else
      let mid = (lo + hi) / 2 in
      if cdf.(mid) >= u then search lo mid else search (mid + 1) hi
  in
  search 0 (Array.length cdf - 1)

let zipf_table ~n ~s =
  let cdf = build_zipf_cdf ~n ~s in
  fun t -> sample_cdf cdf t

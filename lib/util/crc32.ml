type t = int

(* The kernels live in crc32_stubs.c. They read [len] bytes of [s] from
   [pos] unchecked, so every bound is checked here first. *)
external table :
  (int[@untagged]) -> string -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged])
  = "repro_crc32_table_byte" "repro_crc32_table"
[@@noalloc]

external pclmul :
  (int[@untagged]) -> string -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged])
  = "repro_crc32_pclmul_byte" "repro_crc32_pclmul"
[@@noalloc]

external update_byte : (int[@untagged]) -> (int[@untagged]) -> (int[@untagged])
  = "repro_crc32_byte_byte" "repro_crc32_byte"
[@@noalloc]

(* Builds the C tables and probes the CPU, once, while the program is
   still on one domain; nothing writes the stub's globals after this. *)
external setup : unit -> bool = "repro_crc32_setup"

let folds = setup ()
let kernel = if folds then "pclmul" else "table"
let init = 0xffffffff

(* A noalloc call holds off every other domain's stop-the-world section
   until it returns, so long inputs go in 1 MiB pieces. *)
let chunk = 1 lsl 20

let[@inline] feed kernel crc s pos len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Crc32.update_substring";
  let c = ref crc and pos = ref pos and len = ref len in
  while !len > chunk do
    c := kernel !c s !pos chunk;
    pos := !pos + chunk;
    len := !len - chunk
  done;
  kernel !c s !pos !len

let update_substring crc s pos len =
  if folds then feed pclmul crc s pos len else feed table crc s pos len

let update_string crc s = update_substring crc s 0 (String.length s)
let finish crc = crc lxor 0xffffffff
let string s = finish (update_string init s)
let substring s pos len = finish (update_substring init s pos len)

module Private = struct
  let kernels =
    (if folds then [ ("pclmul", feed pclmul) ] else []) @ [ ("table", feed table) ]
end

type t =
  | Drive of int
  | Disk of string
  | Tape of string
  | Cpu
  | Link of string
  | Net of { host : string; part : int }
  | Tenant of string
  | Key of string

let to_key = function
  | Drive i -> Printf.sprintf "drive%d" i
  | Disk l -> "disk:" ^ l
  | Tape l -> "tape:" ^ l
  | Cpu -> "cpu"
  | Link h -> "link:" ^ h
  | Net { host; part } -> Printf.sprintf "net:%s#%d" host part
  | Tenant n -> "tenant:" ^ n
  | Key k -> k

let after prefix k =
  String.sub k (String.length prefix) (String.length k - String.length prefix)

let of_key k =
  let has prefix = String.starts_with ~prefix k in
  if has "disk:" then Disk (after "disk:" k)
  else if has "tape:" then Tape (after "tape:" k)
  else if String.equal k "cpu" then Cpu
  else if has "link:" then Link (after "link:" k)
  else if has "net:" then begin
    (* "net:<host>#<part>": the part index is after the last '#', so a
       host containing '#' still round-trips. *)
    match String.rindex_opt k '#' with
    | Some i when i > 4 && i < String.length k - 1 -> (
      match int_of_string_opt (after "#" (String.sub k i (String.length k - i))) with
      | Some part -> Net { host = String.sub k 4 (i - 4); part }
      | None -> Key k)
    | _ -> Key k
  end
  else if has "tenant:" then Tenant (after "tenant:" k)
  else if has "drive" then (
    match int_of_string_opt (after "drive" k) with
    | Some i when i >= 0 -> Drive i
    | _ -> Key k)
  else Key k

let equal a b = String.equal (to_key a) (to_key b)

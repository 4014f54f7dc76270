let block_size = 4096

let empty_block () =
  let b = Bytes.make block_size '\000' in
  (* count = 0 is already encoded by the zero fill *)
  b

let entries block =
  let open Repro_util.Serde in
  let r = reader (Bytes.unsafe_to_string block) in
  let count = read_u16 r in
  List.init count (fun _ ->
      let ino = read_u32 r in
      let len = read_u8 r in
      let name = read_fixed r len in
      (name, ino))

let find block name =
  List.assoc_opt name (entries block)

let encode items =
  let open Repro_util.Serde in
  let w = writer ~initial_size:block_size () in
  write_u16 w (List.length items);
  List.iter
    (fun (name, ino) ->
      write_u32 w ino;
      write_u8 w (String.length name);
      write_fixed w name)
    items;
  if writer_length w > block_size then None
  else begin
    let b = Bytes.make block_size '\000' in
    Bytes.blit_string (contents w) 0 b 0 (writer_length w);
    Some b
  end

let add block name ino =
  let len = String.length name in
  if len = 0 || len > Layout.max_name_len then invalid_arg "Dir.add: bad name";
  encode (entries block @ [ (name, ino) ])

let remove block name =
  let items = entries block in
  if not (List.mem_assoc name items) then None
  else
    let items = List.filter (fun (n, _) -> not (String.equal n name)) items in
    encode items

let replace block name ino =
  let items = entries block in
  if not (List.mem_assoc name items) then None
  else
    encode
      (List.map (fun (n, i) -> if String.equal n name then (n, ino) else (n, i)) items)

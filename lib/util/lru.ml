module Make (K : Hashtbl.HashedType) = struct
  type key = K.t

  module H = Hashtbl.Make (K)

  type 'v node = {
    key : key;
    mutable value : 'v;
    mutable prev : 'v node option;
    mutable next : 'v node option;
  }

  type 'v t = {
    capacity : int;
    table : 'v node H.t;
    mutable head : 'v node option; (* most recently used *)
    mutable tail : 'v node option; (* least recently used *)
  }

  let create ~capacity =
    if capacity <= 0 then invalid_arg "Lru.create";
    { capacity; table = H.create (2 * capacity); head = None; tail = None }

  let length t = H.length t.table
  let mem t k = H.mem t.table k

  let unlink t node =
    (match node.prev with Some p -> p.next <- node.next | None -> t.head <- node.next);
    (match node.next with Some n -> n.prev <- node.prev | None -> t.tail <- node.prev);
    node.prev <- None;
    node.next <- None

  let push_front t node =
    node.next <- t.head;
    node.prev <- None;
    (match t.head with Some h -> h.prev <- Some node | None -> t.tail <- Some node);
    t.head <- Some node

  let promote t node =
    unlink t node;
    push_front t node

  let find t k =
    match H.find_opt t.table k with
    | None -> None
    | Some node ->
      promote t node;
      Some node.value

  let peek t k =
    match H.find_opt t.table k with None -> None | Some node -> Some node.value

  let remove t k =
    match H.find_opt t.table k with
    | None -> ()
    | Some node ->
      unlink t node;
      H.remove t.table k

  let evict_lru t =
    match t.tail with
    | None -> ()
    | Some victim ->
      unlink t victim;
      H.remove t.table victim.key

  let add t k v =
    (match H.find_opt t.table k with
    | Some node ->
      node.value <- v;
      promote t node
    | None ->
      let node = { key = k; value = v; prev = None; next = None } in
      H.add t.table k node;
      push_front t node);
    while H.length t.table > t.capacity do
      evict_lru t
    done

  let clear t =
    H.clear t.table;
    t.head <- None;
    t.tail <- None
end

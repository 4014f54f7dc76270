module Make (K : Hashtbl.HashedType) = struct
  type key = K.t

  module H = Hashtbl.Make (K)

  (* A node owns the option boxes that point at it ([self]) and at its
     value ([found]), built once when it is made or its value set: a hit
     relinks the node and returns its value without allocating. *)
  type 'v node = {
    key : key;
    mutable found : 'v option; (* always [Some] of the value *)
    mutable prev : 'v node option;
    mutable next : 'v node option;
    mutable self : 'v node option; (* [Some] of this node *)
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
    (match t.head with Some h -> h.prev <- node.self | None -> t.tail <- node.self);
    t.head <- node.self

  (* The head has no [prev]: it stays where it is. *)
  let promote t node =
    match node.prev with
    | None -> ()
    | Some _ ->
      unlink t node;
      push_front t node

  let find t k =
    match H.find t.table k with
    | node ->
      promote t node;
      node.found
    | exception Not_found -> None

  let peek t k = match H.find t.table k with node -> node.found | exception Not_found -> None

  let remove t k =
    match H.find t.table k with
    | node ->
      unlink t node;
      H.remove t.table k
    | exception Not_found -> ()

  let evict_lru t =
    match t.tail with
    | None -> ()
    | Some victim ->
      unlink t victim;
      H.remove t.table victim.key

  let add t k v =
    (match H.find t.table k with
    | node ->
      node.found <- Some v;
      promote t node
    | exception Not_found ->
      let node = { key = k; found = Some v; prev = None; next = None; self = None } in
      node.self <- Some node;
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

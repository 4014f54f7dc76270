(** A bounded LRU map.

    The WAFL buffer cache is an LRU of 4 KB blocks. It caches stored
    blocks only, so an evicted entry is simply dropped. A hit ({!find},
    {!peek}) allocates nothing. *)

module Make (K : Hashtbl.HashedType) : sig
  type key = K.t
  type 'v t

  val create : capacity:int -> 'v t
  (** Raises [Invalid_argument] if [capacity <= 0]. *)

  val length : 'v t -> int
  val mem : 'v t -> key -> bool

  val find : 'v t -> key -> 'v option
  (** [find] promotes the entry to most-recently-used. *)

  val peek : 'v t -> key -> 'v option
  (** [peek] does not change recency. *)

  val add : 'v t -> key -> 'v -> unit
  (** Insert or replace; evicts the least-recently-used entry if over
      capacity. *)

  val remove : 'v t -> key -> unit

  val clear : 'v t -> unit
end

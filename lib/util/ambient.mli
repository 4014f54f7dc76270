(** Domain-local slots: where the obs, fault and prof planes are armed.

    A slot holds at most one value per domain. {!with_} arms a value in
    the calling domain's slot for the extent of a thunk; no other domain
    sees it, and a newly spawned domain starts with every slot empty. So
    two simulations on two domains never read each other's planes.

    One process-wide count of armed slots (all slots, all domains)
    guards {!get}: while nothing is armed anywhere, a hook pays one load
    and one branch, not a domain-local lookup. *)

type 'a t

val make : unit -> 'a t
(** A fresh slot, empty on every domain. *)

val get : 'a t -> 'a option
(** The value armed in this domain's slot, if any. *)

val with_ : 'a t -> 'a -> (unit -> 'b) -> 'b
(** [with_ s v f] runs [f] with [v] armed in this domain's slot, then
    restores the slot's previous value, also when [f] raises. Nests. *)

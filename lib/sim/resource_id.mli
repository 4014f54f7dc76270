(** Typed resource identifiers behind the scheduler's string demand keys.

    Every contended thing in the simulation — a tape drive slot, a source
    disk array, the CPU, a network link, a per-transfer wire stall, a
    tenant's bandwidth budget — is addressed by a string key ("disk:src",
    "tape:S0", "cpu", "link:vault", "net:vault#3", "tenant:acme") in
    demand vectors, trace attributes, and utilization series. This module
    is the single owner of that naming scheme: call sites construct a
    typed id and {!to_key} it, consumers {!of_key} a string back instead
    of re-parsing prefixes by hand. The rendered key format is part of
    the wire/trace contract and must never change shape. *)

type t =
  | Drive of int  (** an exclusive drive slot in a scheduler pool *)
  | Disk of string  (** a source/target disk array, by volume label *)
  | Tape of string  (** a tape drive's transport, by library label *)
  | Cpu
  | Link of string  (** a network link's serialization capacity, by host *)
  | Net of { host : string; part : int }
      (** one transfer's wall-clock wire time (window/latency stalls) *)
  | Tenant of string  (** a tenant's aggregate bandwidth budget *)
  | Key of string  (** escape hatch: a raw key this module does not type *)

val to_key : t -> string
(** Render the id in the established key format: ["drive<i>"],
    ["disk:<label>"], ["tape:<label>"], ["cpu"], ["link:<host>"],
    ["net:<host>#<part>"], ["tenant:<name>"]; [Key k] renders as [k]. *)

val of_key : string -> t
(** Parse a key back into its typed form. Total: anything unrecognized
    (including a malformed part suffix) comes back as [Key]. Inverse of
    {!to_key} on every constructor except [Key "drive7"]-style strings
    that happen to collide with the rendered formats. *)

val equal : t -> t -> bool

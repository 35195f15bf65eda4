(** The 5-tuple identifying a layer-4 connection:
    (source ip, source port, destination ip, destination port, protocol).

    This is the match key of the load balancer's ConnTable. For an IPv6
    connection it is 37 bytes on the wire — the very size SilkRoad's
    digest compression exists to avoid storing. *)

type t = {
  src : Endpoint.t;
  dst : Endpoint.t;
  proto : Protocol.t;
}

val make : src:Endpoint.t -> dst:Endpoint.t -> proto:Protocol.t -> t
val compare : t -> t -> int
val equal : t -> t -> bool

val hash : seed:int -> t -> int64
(** Seed-keyed hash over the canonical byte representation. Different
    seeds give independent functions (cuckoo stages, Bloom indices,
    ECMP selection each use their own seed). *)

val digest : bits:int -> seed:int -> t -> int
(** [digest ~bits ~seed t] is the [bits]-bit connection digest stored in
    ConnTable instead of the full key (SilkRoad §4.2). *)

val key_bytes : t -> int
(** Match-key size if the full tuple were stored: 13 bytes for IPv4,
    37 bytes for IPv6 (addresses + ports + protocol). *)

val is_v6 : t -> bool

val pp : Format.formatter -> t -> unit
val to_string : t -> string

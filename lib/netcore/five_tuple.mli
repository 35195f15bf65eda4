(** The 5-tuple identifying a layer-4 connection:
    (source ip, source port, destination ip, destination port, protocol).

    This is the match key of the load balancer's ConnTable. For an IPv6
    connection it is 37 bytes on the wire — the very size SilkRoad's
    digest compression exists to avoid storing.

    Like the ASIC's hash units, which fold the 5-tuple once per packet
    and derive every stage row and digest from that fold (§4.2), a tuple
    carries its seed-independent 64-bit hash, the fold, computed once by
    {!make}. The fold is held as two immediate ints, its unsigned high
    and low 32 bits, rather than as an [int64] field: that field would
    point to a separate 3-word box, which OCaml 5 allocates in another
    size-class pool than the 5-word tuple, so every packet's first hash
    would cost one more cache miss. The type is private so that no
    tuple exists with a stale fold. *)

type t = private {
  src : Endpoint.t;
  dst : Endpoint.t;
  proto : Protocol.t;
  pre_hi : int;  (** high 32 bits of the fold of the three fields above *)
  pre_lo : int;  (** its low 32 bits, unsigned *)
}

val make : src:Endpoint.t -> dst:Endpoint.t -> proto:Protocol.t -> t
val equal : t -> t -> bool

val hash : seed:int -> t -> int64
(** Seed-keyed hash over the canonical byte representation:
    [Hashing.seeded ~seed] of the fold. Different seeds give independent
    functions (cuckoo stages, Bloom indices, ECMP selection each use
    their own seed). *)

val hash_hi : seed:int -> t -> int
(** The unsigned high 32 bits of {!hash}, as an int; allocation-free. *)

val hash_lo : seed:int -> t -> int
(** The unsigned low 32 bits of {!hash}: with {!hash_hi}, the key
    {!Asic.Bloom_filter.add_halves} takes without an int64 box. *)

val range : seed:int -> t -> int -> int
(** [range ~seed t n] is [Hashing.to_range (hash ~seed t) n], without
    allocating. *)

val bits : seed:int -> t -> int -> int
(** [bits ~seed t k] is [Hashing.truncate_bits (hash ~seed t) k],
    without allocating: the [k]-bit connection digest stored in
    ConnTable instead of the full key (SilkRoad §4.2). *)

module Tbl : Hashtbl.S with type key = t
(** Tuple-keyed hashtable: hashes the fold's low 63 bits, compares
    with {!equal}. *)

val is_v6 : t -> bool

val pp : Format.formatter -> t -> unit

(** DIPPoolTable: (VIP, version) → immutable DIP pool (§4.2, Figure 7).

    The extra level of indirection that lets ConnTable store a 6-bit
    version instead of an 18-byte DIP. Each VIP owns a private version
    allocator; pools are reference-counted by the connections that use
    them, and a pool whose connections have all expired is destroyed,
    returning its version number to the VIP's ring buffer.

    The table also implements {e version reuse}: when an update merely
    substitutes a new DIP for a previously removed one, an existing old
    pool is modified in place and becomes current again, instead of
    burning a fresh version number.

    A VIP's state is one {!vip} record, which {!Vip_table} links to its
    VIPTable entry, so the packet path resolves a VIP once and matches
    the version by number within it. *)

type t

type vip
(** One VIP's versions and version allocator. *)

type info = private {
  version : int;
  mutable pool : Lb.Dip_pool.t;  (** rewritten in place by substitution reuse *)
  mutable refs : int;  (** connections using this version *)
}
(** One allocated version. The record stays the same for the version's
    whole life, so a connection can hold it. *)

val create : version_bits:int -> seed:int -> t

val add_vip : t -> Netcore.Endpoint.t -> Lb.Dip_pool.t -> (vip * int, [ `Exists ]) result
(** Register a VIP with its initial pool; returns its state and its
    initial version. *)

val remove_vip : t -> Netcore.Endpoint.t -> unit
(** Drop a VIP and every version it owns (serve-mode VIP teardown).
    The caller is responsible for having released the connections that
    referenced those versions first. No-op on an unknown VIP. *)

val lookup : vip -> int -> info
(** The version's record; for a version not allocated, the VIP's
    placeholder, whose version is -1 and whose pool is empty.
    Allocation-free: an array read. *)

val allocated : vip -> int -> bool
(** Whether the VIP holds this version. *)

val select : t -> info -> Netcore.Five_tuple.t -> none:Netcore.Endpoint.t -> Netcore.Endpoint.t
(** Hash the flow over the version's pool. Returns [none] (meant to be
    the physically-unique {!Netcore.Endpoint.none}, tested with [==])
    when the pool is empty, as the placeholder's is. Allocation-free. *)

val select_dip_fast :
  t ->
  vip:Netcore.Endpoint.t ->
  version:int ->
  Netcore.Five_tuple.t ->
  none:Netcore.Endpoint.t ->
  Netcore.Endpoint.t
(** {!select} of the VIP's version, found by address: [none] when the
    VIP or the version is unknown or the pool is empty. *)

val publish :
  t -> vip -> current:int -> Lb.Balancer.update ->
  (int, [ `Versions_exhausted | `Bad_update of string ]) result
(** Derive the pool for an update of the current version's pool and
    return the version that should become current. Reuses an existing
    allocated version when the update substitutes a removed DIP
    (including explicit [Dip_replace]) or when an allocated version
    already holds exactly the target pool (flapping DIPs, rolling
    reboots revisiting a state); otherwise allocates a fresh version
    for the new pool. *)

val retain : info -> unit
(** A connection started using this version. Raises
    [Invalid_argument] on the placeholder. *)

val release : vip -> info -> current:int -> unit
(** A connection using this version ended. When the count reaches zero
    and the version is not [current], the pool is destroyed and the
    version returns to the ring buffer. Raises [Invalid_argument] when
    the version was already destroyed, or on a count underflow. *)

val gc : vip -> current:int -> unit
(** Destroy every version of the VIP that has no connections and is not
    [current] — run after a VIPTable flip so a version that never
    attracted connections is recycled promptly. *)

val live_versions : vip -> int
(** Number of currently allocated versions for the VIP. *)

val version_exhaustions : t -> int
val reuses : t -> int
(** How many updates were absorbed by version reuse. *)

val sram_bits : t -> int
(** Memory footprint of the table: one entry per (VIP, live version)
    holding the member DIPs. *)

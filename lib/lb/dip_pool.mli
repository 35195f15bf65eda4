(** An immutable DIP pool: the set of backend servers for one VIP.

    Immutability matters: SilkRoad's versioning scheme relies on "once a
    DIP pool is created and has active connections that still use it, the
    DIP pool never changes" (§4.2) — consistent hashing for its users is
    guaranteed by never mutating a published pool. All update operations
    return a new pool. *)

type t

val of_list : Netcore.Endpoint.t list -> t
(** The pool with the given members (order preserved, duplicates
    rejected). Raises [Invalid_argument] on duplicates. *)

val members : t -> Netcore.Endpoint.t array
val size : t -> int
val is_empty : t -> bool
val mem : t -> Netcore.Endpoint.t -> bool

val select_flow : seed:int -> t -> Netcore.Five_tuple.t -> Netcore.Endpoint.t
(** ECMP-style selection by the flow's 5-tuple hash (with [seed]). All
    packets of a flow select the same member — as long as the pool is
    the same. The pool must be non-empty. *)

val add : t -> Netcore.Endpoint.t -> t
(** Append a member. Raises [Invalid_argument] if already present. *)

val remove : t -> Netcore.Endpoint.t -> t
(** Remove a member (no-op if absent). *)

val replace : t -> old_dip:Netcore.Endpoint.t -> new_dip:Netcore.Endpoint.t -> t
(** Substitute in place — the version-reuse trick: the new DIP takes the
    slot of the removed one, so hashing of all other members is
    unchanged. Raises [Invalid_argument] when [old_dip] is absent or
    [new_dip] already present. *)

val equal : t -> t -> bool

(** An [ip:port] pair — the representation of both VIPs and DIPs. *)

type t = {
  ip : Ip.t;
  port : int;  (** 0..65535 *)
}

val make : Ip.t -> int -> t
val v4 : int -> int -> int -> int -> int -> t
(** [v4 a b c d port] is a convenience constructor for [a.b.c.d:port]. *)

val none : t
(** A {e physically unique} sentinel ([0.0.0.0:0]) that allocation-free
    code paths return instead of ['t option]. Test with [==], never with
    {!equal} — the same value can also be built legitimately. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val hash_fold : int64 -> t -> int64
val size_bytes : t -> int
(** Wire size of the endpoint: address bytes + 2 port bytes. *)

module Tbl : Hashtbl.S with type key = t
(** Endpoint-keyed hashtable (VIPs): compares with {!equal}, hashes the
    address words and the port with plain int arithmetic, so [find]
    allocates nothing. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
val of_string : string -> t option
(** Parses ["a.b.c.d:port"] (or an IPv6 literal in square brackets,
    ["[h:...:h]:port"]). *)

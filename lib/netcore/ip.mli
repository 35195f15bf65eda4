(** IP addresses, both IPv4 and IPv6.

    The load balancer is address-family agnostic: VIPs and DIPs may be v4
    or v6, and the memory model depends on the family (an IPv6 5-tuple is
    37 bytes, an IPv4 one is 13). Addresses are stored as unboxed integers
    so that millions of them stay cheap in the simulator. *)

type t =
  | V4 of int32
  | V6 of int64 * int64  (** high 64 bits, low 64 bits *)

val compare : t -> t -> int
val hash_fold : int64 -> t -> int64
(** [hash_fold acc t] folds the address bytes into a running 64-bit hash
    accumulator (see {!Hashing.mix64}). *)

val v4 : int -> int -> int -> int -> t
(** [v4 a b c d] is the address [a.b.c.d]. Each component must fit in a
    byte. *)

val v6 : int64 -> int64 -> t

val family_bytes : t -> int
(** Size of the address in bytes: 4 or 16. *)

val is_v6 : t -> bool

val pp : Format.formatter -> t -> unit

val of_string : string -> t option
(** Parses dotted-quad IPv4 ([a.b.c.d]) and full/abbreviated-free IPv6
    ([h:h:h:h:h:h:h:h], 8 hex groups; [::] abbreviation is supported). *)

(** Transport protocols understood by the layer-4 load balancer. *)

type t =
  | Tcp
  | Udp

val equal : t -> t -> bool
val compare : t -> t -> int
val to_byte : t -> int
(** IANA protocol number: 6 for TCP, 17 for UDP. *)

val pp : Format.formatter -> t -> unit

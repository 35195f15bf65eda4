(** TCP control flags. SilkRoad's data plane only needs SYN (new
    connection — used to detect digest false positives) and FIN/RST
    (connection teardown — drives ConnTable entry expiry), but we carry
    the full flag byte for completeness. *)

type t = {
  syn : bool;
  ack : bool;
  fin : bool;
  rst : bool;
  psh : bool;
  urg : bool;
}

val syn : t
(** A bare SYN — first packet of a connection. *)

val fin : t
val data : t
(** ACK+PSH — a mid-connection data segment. *)

val to_byte : t -> int
val of_byte : int -> t
val is_connection_start : t -> bool
(** SYN set and ACK clear. *)

val is_connection_end : t -> bool
(** FIN or RST set. *)

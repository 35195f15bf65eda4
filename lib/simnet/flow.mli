(** A flow (one L4 connection) in the flow-level simulator. *)

type t = {
  id : int;
  tuple : Netcore.Five_tuple.t;  (** destination is the VIP *)
  start : float;
  duration : float;  (** seconds the connection stays active *)
  bytes_per_sec : float;  (** average rate while active *)
}

val finish : t -> float
(** [start +. duration]. *)

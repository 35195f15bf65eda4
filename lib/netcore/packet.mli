(** A layer-4 packet as seen by the load balancer's data plane.

    We model exactly the header fields the balancer reads or rewrites:
    the 5-tuple, TCP flags, and payload length. The balancer's action is
    destination NAT — rewriting [flow.dst] (the VIP) to the selected DIP. *)

type t = {
  flow : Five_tuple.t;
  flags : Tcp_flags.t;
  payload_len : int;  (** bytes of L4 payload *)
}

val make : ?flags:Tcp_flags.t -> ?payload_len:int -> Five_tuple.t -> t
val syn : Five_tuple.t -> t
(** First packet of a TCP connection. *)

val data : Five_tuple.t -> t
(** A data packet with a 1024-byte payload. *)

val wire_size : t -> int
(** Total bytes on the wire: Ethernet + IP + TCP/UDP headers + payload.
    Used by meters and throughput accounting. *)

val wire_size_of : payload_len:int -> Five_tuple.t -> int
(** {!wire_size} without building a packet record — what
    [Silkroad.Switch.process_flow] meters, since the replay engines
    hand it a packet's fields, never a [t]. *)

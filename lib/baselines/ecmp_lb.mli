(** The stateless strawman: ECMP hashing over the DIP pool with no
    connection state anywhere (§2.3's "leverage ECMP hashing ... but do
    not maintain the connection state").

    Fast and tiny, but any DIP-pool change rehashes ongoing connections:
    PCC is violated for roughly [(n-1)/n] of the flows whose hash moves.
    Used as the lower bound in the PCC experiments. *)

val create_with : seed:int -> (Netcore.Endpoint.t * Lb.Dip_pool.t) list -> Lb.Balancer.t
(** A balancer with pre-populated VIPs. *)

(** Combining SilkRoad with SLBs (§7, "Combine with SLB solutions").

    When ConnTable occupancy crosses a threshold, new connections are
    redirected to an SLB instead — "basically treating SilkRoad
    ConnTable as a cache of connections".

    Unlike Duet, connections never migrate between the switch and the
    SLB: whichever component takes a connection's first packet keeps it
    until it dies, so PCC always holds. DIP-pool updates are applied to
    both components. *)

type t

val create :
  ?cfg:Config.t ->
  ?overflow_threshold:float ->
  seed:int ->
  vips:(Netcore.Endpoint.t * Lb.Dip_pool.t) list ->
  unit ->
  t
(** [overflow_threshold] is the ConnTable occupancy (0..1, default 0.95)
    beyond which new connections spill to the SLB. *)

val balancer : t -> Lb.Balancer.t

val spilled_connections : t -> int
(** Connections redirected to the SLB by the overflow rule. *)

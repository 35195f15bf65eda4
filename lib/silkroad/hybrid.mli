(** Combining SilkRoad with SLBs (§7, "Combine with SLB solutions").

    Two composition modes, both supported simultaneously:

    - {b overflow}: when ConnTable occupancy crosses a threshold, new
      connections are redirected to an SLB instead — "basically treating
      SilkRoad ConnTable as a cache of connections";
    - {b pinning}: the operator assigns specific VIPs to the SLB
      permanently — "use SilkRoad to handle VIPs with high traffic
      volume and use SLBs to handle those VIPs with a large number of
      connections".

    Unlike Duet, connections never migrate between the switch and the
    SLB: whichever component takes a connection's first packet keeps it
    until it dies, so PCC always holds. DIP-pool updates are applied to
    both components. *)

type t

val create :
  ?metrics:Telemetry.Registry.t ->
  ?cfg:Config.t ->
  ?overflow_threshold:float ->
  ?slb_vips:Netcore.Endpoint.t list ->
  seed:int ->
  vips:(Netcore.Endpoint.t * Lb.Dip_pool.t) list ->
  unit ->
  t
(** [overflow_threshold] is the ConnTable occupancy (0..1, default 0.95)
    beyond which new connections spill to the SLB; [slb_vips] are pinned
    to the SLB outright. *)

val balancer : t -> Lb.Balancer.t

val spilled_connections : t -> int
(** Connections redirected to the SLB by the overflow rule. *)

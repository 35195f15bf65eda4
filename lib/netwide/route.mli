(** Deterministic per-flow routing over a {!Topology}.

    Each hop is an independent ECMP choice: at every layer the flow's
    5-tuple picks one live switch by highest-random-weight (rendezvous)
    hashing, so a switch failure remaps exactly the flows whose best
    node died — the minimal-disruption property resilient ECMP gives on
    real fabrics — and a recovery routes the same flows back.

    Routing is a pure function of (topology seed, link state, VIP
    placement, 5-tuple): same inputs, same path, on every run. *)

val path : Topology.t -> vip:Netcore.Endpoint.t -> Netcore.Five_tuple.t -> Topology.node list
[@@silkroad.allow "surface.unused-export: test_netwide checks per-flow routes hop by hop; the program asks only for the owner"]
(** The hop sequence from the entry (top) layer down to the layer
    terminating [vip], one node per layer. Stops early when a transit
    layer has no live node (the flow is undeliverable past that
    point). *)

val owner : Topology.t -> vip:Netcore.Endpoint.t -> Netcore.Five_tuple.t -> Topology.node option
(** The switch that load-balances this flow: the last hop of {!path}
    when it reaches [vip]'s layer, [None] when the flow cannot be
    delivered (terminating or transit layer fully down). *)

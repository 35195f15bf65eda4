(** The multi-switch deployment: SilkRoad switches arranged in layers
    (Core / Aggregation / ToR), with per-switch link state and a
    VIP-to-layer placement computed by {!Silkroad.Assignment}'s §4.4
    bin packing.

    A topology is the static half of the network-wide simulation: which
    switches exist, which are up, and which layer terminates each VIP's
    traffic. {!Route} derives the per-flow forwarding decision from it,
    and {!Replay} streams packed traces through it.

    Construction is pipeline-checked: the placement runs through
    {!Analysis.Feasibility.check_network}, so an infeasible
    configuration (a VIP no layer can host, SRAM over budget) fails at
    build time with the ordinary [net.*] diagnostics instead of
    surfacing as mysterious behaviour mid-replay. *)

type node = {
  node_id : int;  (** globally unique, dense in [0, n_nodes) *)
  layer_name : string;
  layer_pos : int;  (** 0 = entry (top) layer, increasing downwards *)
  member : int;  (** index within the layer *)
  mutable up : bool;
}

type t = {
  seed : int;  (** routing hash seed *)
  layers : Silkroad.Assignment.layer list;  (** top → bottom *)
  layer_nodes : node array array;  (** per layer position *)
  nodes : node array;  (** all nodes, grouped by layer, id order *)
  placement : Silkroad.Assignment.placement;
  diags : Analysis.Diag.t list;  (** feasibility diagnostics from construction *)
  vip_layer : int Netcore.Endpoint.Tbl.t;  (** VIP → layer position *)
  vips : (Netcore.Endpoint.t * Lb.Dip_pool.t) list;
}

val demands_of_vips :
  ?conn_bits:int ->
  ?traffic_gbps:float ->
  (Netcore.Endpoint.t * Lb.Dip_pool.t) list ->
  Silkroad.Assignment.vip_demand list
(** Uniform demand records for concrete VIPs (default: a "mouse" VIP,
    50 K connections at ~40 ConnTable bits each, 1.5 Gbps). *)

val build :
  ?check:[ `Fail | `Warn | `Off ] ->
  ?sram_warn:float ->
  ?demands:Silkroad.Assignment.vip_demand list ->
  ?seed:int ->
  layers:Silkroad.Assignment.layer list ->
  vips:(Netcore.Endpoint.t * Lb.Dip_pool.t) list ->
  unit ->
  t
(** Place the VIPs over the layers and materialise the switch nodes.

    [check] (default [`Fail]) controls the network-mode feasibility
    gate: [`Fail] raises [Invalid_argument] carrying the [net.*]
    diagnostics when the placement has errors (a VIP nowhere to live),
    [`Warn] keeps the diagnostics in {!field-diags} and proceeds,
    [`Off] skips {!Analysis.Feasibility.check_network} and uses the raw
    {!Silkroad.Assignment.assign} placement. [demands] defaults to
    {!demands_of_vips} over [vips]. VIPs the placement could not place
    (under [`Warn]/[`Off]) fall back to the bottom layer.

    A layer whose [sram_budget_bits] is zero is a {e pure transit}
    layer: it participates in routing but is excluded from the bin
    packing, so no VIP can terminate there. At least one layer must
    have a positive budget. *)

val n_nodes : t -> int

val find_layer : t -> string -> int
(** Layer position by name; raises [Invalid_argument] when unknown. *)

val layer_of_vip : t -> Netcore.Endpoint.t -> int
(** The layer position terminating this VIP's traffic (bottom layer for
    VIPs the topology has never seen). *)

val move_vip : t -> Netcore.Endpoint.t -> string -> unit
(** Re-pin a VIP to another layer (§4.4 migration). Routing changes
    immediately; connection state does not travel — {!Replay} models
    the state loss. Raises [Invalid_argument] on an unknown layer. *)

val set_up : t -> node_id:int -> bool -> unit
(** Mark a switch up/down. Down switches are skipped by {!Route}. *)

val live : t -> layer:int -> node list
(** Live nodes of a layer, member order. *)

val pp : Format.formatter -> t -> unit

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
  vip_layer : int Netcore.Endpoint.Tbl.t;  (** VIP → layer position *)
  vips : (Netcore.Endpoint.t * Lb.Dip_pool.t) list;
  owned : node option array;
      (** [Some n] for each node, by [node_id]: built once, so
          {!Route.owner} allocates no option *)
}

val build :
  ?seed:int ->
  layers:Silkroad.Assignment.layer list ->
  vips:(Netcore.Endpoint.t * Lb.Dip_pool.t) list ->
  unit ->
  t
(** Place the VIPs over the layers and materialise the switch nodes.
    Each VIP demands 2,000,000 ConnTable bits and 1.5 Gb/s. Raises
    [Invalid_argument] carrying the [net.*] diagnostics of
    {!Analysis.Feasibility.check_network} when the placement has errors
    (a VIP nowhere to live).

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

val pp : Format.formatter -> t -> unit

(** The common interface every load balancer in this repository
    implements — SilkRoad, the software balancer, Duet and stateless
    ECMP — so the simulation harness and the PCC oracle can drive any of
    them interchangeably.

    A balancer is driven with three calls:
    - {!advance} moves its internal control plane (switch CPU, SLB
      migration timers, ...) forward to the current virtual time;
    - {!process} forwards one packet and reports which DIP it went to
      and which component handled it;
    - {!update} requests a DIP-pool change for a VIP. *)

type update =
  | Dip_add of Netcore.Endpoint.t
  | Dip_remove of Netcore.Endpoint.t
  | Dip_replace of {
      old_dip : Netcore.Endpoint.t;
      new_dip : Netcore.Endpoint.t;
    }

type location =
  | Asic  (** forwarded at line rate by the switching ASIC *)
  | Switch_cpu  (** slow path through the switch management CPU *)
  | Slb  (** handled by a software load balancer server *)

type reroute = {
  rr_vip : Netcore.Endpoint.t option;
      (** restrict to flows of this VIP; [None] = every VIP *)
  rr_fraction : float;
      (** fraction of matching flows re-routed, selected by a salted
          5-tuple hash so the same flows are chosen on failure and on
          the matching recovery event *)
  rr_salt : int;  (** hash salt identifying this failure episode *)
}
(** Description of a network event — a switch failing, recovering, or a
    VIP migrating to another layer — that moves some flows to a
    different physical balancer instance. The affected flows lose any
    per-connection state the old instance held: ECMP re-hashes them to
    a survivor that never learned them. *)

type disturbance =
  | Cpu_backlog of int
      (** queue this many extra work items on the balancer's slow-path
          processor (the switch management CPU for SilkRoad, the x86
          packet path for an SLB). Used by the chaos harness to model
          control-plane stalls (§4.3's race window); balancers with no
          rate-limited slow path ignore it. *)
  | Reroute of reroute
      (** drop the per-connection state of the selected flows, as an
          upstream re-route to a different switch would. Stateless
          balancers (ECMP) and ones whose state survives the re-route
          (duet's SLB tier) treat it as a no-op. *)

type outcome = {
  dip : Netcore.Endpoint.t option;  (** [None] = packet dropped *)
  location : location;
}

type t = {
  name : string;
  advance : now:float -> unit;
  process : now:float -> Netcore.Packet.t -> outcome;
  update : now:float -> vip:Netcore.Endpoint.t -> update -> unit;
  connections : unit -> int;  (** connection-table entries currently held *)
  metrics : unit -> Telemetry.Registry.t;
      (** the balancer's telemetry registry. Every implementation exposes
          at least the uniform [lb.packets] / [lb.dropped_packets]
          counters, plus its own implementation-specific metrics. A thunk
          so a wrapper can merge registries at snapshot time. *)
  disturb : now:float -> disturbance -> unit;
      (** apply a fault-injection disturbance. Implementations translate
          it to whatever internal resource it stresses; a no-op where the
          disturbance has no analogue. *)
}

val pp_location : Format.formatter -> location -> unit
val pp_update : Format.formatter -> update -> unit

val apply_update : Dip_pool.t -> update -> Dip_pool.t
(** The pure pool transformation an update denotes. *)

val reroute_selects : reroute -> Netcore.Five_tuple.t -> bool
(** Does this re-route event move the given flow? Deterministic in the
    event's salt, so a recovery event with the same salt selects exactly
    the flows its failure event moved away. *)

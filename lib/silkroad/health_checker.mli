(** DIP health checking (§7, "Handle DIP failures").

    Switches already run BFD-style liveness probes; SilkRoad points them
    at the DIPs: every [interval] seconds each DIP is probed, a DIP that
    misses [threshold] consecutive probes is declared down and removed
    from its pools, and a recovered DIP is re-added (feeding the version
    allocator's reuse path).

    The checker is driven by the simulation clock ({!advance}) and reads
    ground-truth liveness from a callback; it emits the
    {!Lb.Balancer.update}s a control loop would push into the switch.

    {!probe_bandwidth_bps} reproduces the paper's overhead estimate:
    probing 10 K DIPs every 10 s with 100-byte packets costs ~800 kbps
    (the paper rounds the same arithmetic to "around 800 Kbps"). *)

type t

val create :
  ?interval:float ->
  ?threshold:int ->
  is_alive:(Netcore.Endpoint.t -> bool) ->
  dips:Netcore.Endpoint.t list ->
  unit ->
  t
(** Defaults: probe every 10 s, declare down after 3 missed probes. *)

val advance : t -> now:float -> (Netcore.Endpoint.t * [ `Down | `Up ]) list
(** Run all probes due by [now] (in order) and return the state
    transitions detected, oldest first. A [`Down] transition should be
    turned into [Dip_remove] on every pool containing the DIP; [`Up]
    into [Dip_add]. *)

val is_marked_down : t -> Netcore.Endpoint.t -> bool
[@@silkroad.allow "surface.unused-export: test_silkroad observes the checker's hysteresis through it"]

val probe_bandwidth_bps : dips:int -> interval:float -> probe_bytes:int -> float
[@@silkroad.allow "surface.unused-export: reproduces the paper's probe overhead estimate, which test_silkroad pins"]
(** Probe traffic a checker injects with [probe_bytes]-byte probes. *)

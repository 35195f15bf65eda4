(** Network-wide trace replay: a {!Harness.Packed_trace} streamed
    through every switch of a {!Topology}, with one end-to-end PCC
    judge spanning the whole network.

    Each switch is a shard whose partition is defined by the topology
    ({!Route.owner}) instead of a hash — {!Harness.Replay.run_tasks}'
    worker group with ECMP as the shard function. The judge is
    {!Lb.Pcc.Flat}, the one the single-switch engine calls, and its
    state is global and flow-indexed, never per-switch: when a topology event moves a flow to a switch that
    never learned it, the oracle keeps holding the connection to the
    DIP its very first packet got. That is the paper's network-wide
    claim stated as code — a connection must survive pool updates
    {e and} a re-route to a different switch.

    Equivalence contract (pinned by test/test_netwide.ml): on a
    degenerate topology whose placement puts every VIP on a single
    switch and with no topology events, [run] is byte-identical in
    merged telemetry to {!Harness.Replay.run} (in [Scalar] and in
    [Batch] mode) over the same trace and controls. The
    [netwide.*] counters are registered only when a topology event
    actually fires, so event-free runs add nothing to the snapshot. *)

type event =
  | Switch_down of int  (** node id; its connection state is lost *)
  | Switch_up of int
      (** node id; returns as a {e fresh} switch (same telemetry
          registry, empty tables) hosting its layer's VIPs at their
          current pools *)
  | Vip_move of Netcore.Endpoint.t * string
      (** re-pin the VIP to the named layer; its flows' state on the
          old layer is dropped (state does not travel, §4.4) *)

type result = {
  packets : int;
  dropped : int;
  connections : int;
  broken : int;  (** connections that ever saw a wrong/no DIP *)
  violations : int;  (** packets violating per-connection consistency *)
  moved_flows : int;  (** flow re-homings applied by topology events *)
  first_dip : Netcore.Endpoint.t array;  (** per flow, network-wide *)
  telemetry : Telemetry.Registry.t;
      (** merged snapshot: the run's own [replay.*] (and, if events
          fired, [netwide.*]) counters plus every node's registry in
          node-id order. Registries survive switch failure/recovery, so
          counters continue across a down/up cycle. *)
  elapsed : float;  (** wall-clock seconds spent replaying *)
}

val run :
  ?cfg:Silkroad.Config.t ->
  ?parallel:bool ->
  ?events:(float * event) list ->
  ?controls:(float * Harness.Replay.control) list ->
  topo:Topology.t ->
  trace:Harness.Packed_trace.t ->
  unit ->
  result
(** Replay [trace] through [topo]. [controls] are the ordinary replay
    controls (updates, chaos) with their one meaning,
    {!Harness.Replay.retired_dip} and {!Harness.Replay.apply_to}: the
    retired DIP is logged in every node's judge counters (a re-homed
    flow is judged by whichever node owns it now), an update
    is applied to the switches hosting its VIP (the rest only advance),
    an attack SYN to its {!Route.owner}, and every other control to
    every live switch.
    Packets at a control's time fire first, and at equal times controls
    fire before topology [events]. Each switch gets one
    {!Silkroad.Switch.process_flow} call per packet. [parallel] (default
    false) processes the switches of each segment on a worker group of
    [min switches (auto_shards ())] domains — safe because a flow is
    owned by exactly one switch between consecutive topology events, and
    events are barriers. *)

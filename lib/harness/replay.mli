(** The fast-path replay engine: stream a {!Packed_trace.t} through one
    or more {!Silkroad.Switch.t} instances with flat-array PCC
    accounting. Every packet takes one {!step}. On an exact ConnTable
    hit it allocates only the packet time it boxes for
    {!Silkroad.Switch.process_flow}, which keeps the time's bits as the
    connection's last-seen time, not the box, so the box dies young.

    Three modes, with a pinned equivalence contract:

    - [Scalar] — one switch, one {!Silkroad.Switch.process_flow} call
      per packet: the {!Stepper}'s per-packet path, which {!Driver.run}
      also runs with the balancer's [advance] and [process] as its
      probe. Packet order, control tie-breaking and control semantics
      are therefore shared by construction; its counters equal the
      Driver's on a SilkRoad balancer.
    - [Batch] — one switch, {!step} called directly on each packet.
      Byte-identical to [Scalar], including the merged telemetry
      snapshot.
    - [Sharded] — flows partitioned by 5-tuple hash over K independent
      switches ([parallel] runs them on Domains). PCC is preserved
      trivially: every packet of a flow lands on the same switch.
      Digest collisions and Bloom false positives can only involve
      co-sharded flows — a strictly smaller collision class than the
      scalar run — so equivalence with [Scalar] is stated over the
      collision-free counters only.

    Re-route scenarios (a [Reroute] control: switch failure or recovery,
    VIP migration) relax that contract further. A re-route makes the
    selected flows forget their balancer-side state mid-update, and each
    forgotten flow re-learns its DIP against its own switch's CPU and
    barrier timeline. Sharding divides every switch's load by the shard
    count, so a re-learn can land on the other side of the §4.3 race
    window from the scalar run: [broken] and [violations] depend on the
    mode there. What stays shard-invariant is [packets], [dropped],
    [connections] and the [switch.rerouted_flows] counter: every
    re-route tears down the same connection set, because each flow's
    state lives on exactly one shard and its lifetime depends only on
    that flow's own packet times. And in every mode only re-homed
    connections may break: [broken <= switch.rerouted_flows].

    Every judged packet goes through {!Lb.Pcc.Flat}, the flow-indexed
    refinement of the {!Lb.Pcc} oracle; attack SYNs go through the
    switch but touch neither the packet counters nor the judge. *)

(** A control event. Its meaning is defined once, by {!retired_dip}
    (the judge side) and {!apply_to} (the balancer side); both engines —
    {!Stepper} and [Netwide.Replay] — call both and keep only their own
    routing of the control to switches. *)
type control =
  | Update of Netcore.Endpoint.t * Lb.Balancer.update
      (** a DIP-pool update; a removal or replacement retires the old DIP *)
  | Dip_dead of Netcore.Endpoint.t
      (** ground truth only: the DIP's server died; no balancer effect *)
  | Cpu_backlog of int
  | Attack_syn of Netcore.Five_tuple.t
  | Reroute of Lb.Balancer.reroute
      (** topology re-route (switch failure/recovery, VIP migration):
          the selected flows lose their balancer-side connection state;
          the judge is untouched, so it keeps holding the re-routed
          connections to their original DIP — the network-wide
          consistency question (§5.3). *)

val retired_dip : control -> Netcore.Endpoint.t option
(** The DIP whose server the control retires: the removed DIP of a
    [Dip_remove], the old DIP of a [Dip_replace], the DIP of a
    [Dip_dead]. Connections pinned to it are dead on arrival, not PCC
    victims (§4.3), so every engine excludes it from the judge. *)

val apply_to : Lb.Balancer.t -> at:float -> control -> unit
(** The balancer side of a control: advance to [at], then [update],
    [disturb (Cpu_backlog n)], [disturb (Reroute r)], or [process] the
    attack SYN (payload 0, not counted or judged by the caller).
    [Dip_dead] is a no-op. *)

type mode =
  | Scalar
  | Batch
  | Sharded of {
      shards : int;
      parallel : bool;
          (** run the shards on a worker group of
              [min shards (auto_shards ())] Domains (one spawn per extra
              worker per run, shards strided across workers). With one
              available core the group degenerates to the sequential
              loop, so parallel never loses to sequential by
              oversubscription; counters are byte-identical to the
              sequential sharded run either way. *)
    }

val auto_shards : unit -> int
(** [max 1 (Domain.recommended_domain_count ())] — the shard/worker
    count matched to this machine. *)

val controls_of_chaos : horizon:float -> Chaos.Engine.event list -> (float * control) list
(** The control stream of a compiled chaos timeline: delivered updates,
    DIP deaths, CPU backlogs, attack SYNs and re-routes, with
    dropped/suppressed updates and DIP recoveries elided. Events at or
    after the horizon are discarded. *)

val controls_of_updates :
  horizon:float ->
  (float * Netcore.Endpoint.t * Lb.Balancer.update) list ->
  (float * control) list
(** Scripted updates as controls. When combining with chaos controls,
    concatenate chaos first — {!run} sorts stably by time, so chaos
    fires before scripted updates at equal times, as in {!Driver.run}. *)

type result = {
  mode : mode;
  packets : int;  (** measured probes (attack SYNs excluded) *)
  dropped : int;
  connections : int;  (** distinct connections judged (Pcc.total) *)
  broken : int;
  violations : int;
  false_hits : int;  (** summed over shards *)
  repairs : int;
  first_dip : Netcore.Endpoint.t array;
      (** per flow index: the DIP of its first judged packet;
          {!Silkroad.Switch.no_dip} (compare with [==]) when the first
          packet was dropped or the flow never sent *)
  telemetry : Telemetry.Registry.t;
      (** replay.* counters merged with every shard switch's registry *)
  elapsed : float;  (** wall-clock seconds spent replaying (gather excluded) *)
}

val shard_of : shards:int -> Netcore.Five_tuple.t -> int
(** The flow partition used by [Sharded] mode (dedicated hash seed,
    independent of all table seeds). *)

type counts = {
  c_packets : int;
  c_dropped : int;
  c_connections : int;  (** distinct connections judged (Pcc.total) *)
  c_broken : int;
  c_violations : int;
}

val sum_counts : counts list -> counts

val counts_of : Lb.Pcc.Flat.counters -> counts

val registry_of_counts : counts -> Telemetry.Registry.t
(** A fresh registry holding the five [replay.*] counters every replay
    engine merges into its telemetry. *)

val payload_len : int
(** The payload length of every trace packet: 1024 bytes. *)

val flag_table : unit -> Netcore.Tcp_flags.t array
(** A fresh table from a {!Packed_trace.t} flag byte to its flag set. *)

val step :
  Silkroad.Switch.t ->
  Packed_trace.t ->
  flags_of_byte:Netcore.Tcp_flags.t array ->
  Lb.Pcc.Flat.t ->
  Lb.Pcc.Flat.counters ->
  int ->
  unit
(** [step switch trace ~flags_of_byte pcc c i] sends packet [i] of
    [trace] through {!Silkroad.Switch.process_flow} and judges its DIP
    into [c]: the one per-packet step of the {!Stepper}'s direct path
    and of [Netwide.Replay]. [flags_of_byte] is a {!flag_table}. *)

val run_tasks : parallel:bool -> int -> (int -> unit) -> unit
(** [run_tasks ~parallel n task] runs [task 0 .. task (n-1)]: in order on
    the calling domain, or, when [parallel], on a worker group of
    [min n (auto_shards ())] domains, each taking the stride
    [w, w + workers, ...] start to finish. Tasks must touch disjoint
    state. *)

(** The packet loop, exposed incrementally: one stepper per shard, each
    driving a balancer with a cursor into its share of the packed trace.
    {!run} is exactly "apply every control in time order, then finish" on
    these steppers. The long-running serve mode ({!Control.Session})
    drives the same steppers one command at a time, which is what makes
    a scripted serve session counter-identical to a batch replay by
    construction; {!Driver.run} and the model checker drive one stepper
    each.

    Discipline: packets at time [t <= at] fire before a control applied
    at [at], and {!Stepper.apply}/{!Stepper.finish} are the only places
    the balancer's control plane is advanced outside the per-packet
    path. *)
module Stepper : sig
  type shared
  (** The trace, read in place, each shard's packet indices into it, and
      the {!Lb.Pcc.Flat} judge state all shards of a run share; writes
      are disjoint by flow owner, so parallel steppers need no locks.
      With more than one shard, the index arrays (one int a packet in
      all) are the only per-run allocation that grows with the trace; a
      single shard reads the trace in order and has none. *)

  val make_shared : trace:Packed_trace.t -> shards:int -> shared
  val horizon : shared -> float

  type t

  val create : shared -> shard:int -> batched:bool -> Silkroad.Switch.t -> t
  (** A stepper on a switch, [shard] in [0 .. shards-1]. [batched]
      runs {!step} on each packet (the fast path); [false] is
      {!of_balancer} with {!Silkroad.Switch.process_flow} as the probe
      and no violation observer. Both send each packet through the
      switch once, with the same arguments. *)

  val of_balancer :
    shared ->
    shard:int ->
    Lb.Balancer.t ->
    probe:(int -> float -> Netcore.Tcp_flags.t -> Netcore.Endpoint.t) ->
    on_violation:(float -> unit) ->
    t
  (** The per-packet path for any balancer. [probe fi at flags] sends
      one packet of flow index [fi] at time [at] and returns its DIP
      ({!Lb.Pcc.Flat.no_dip} on a drop); the stepper judges it, and
      calls [on_violation at] when that judgement counted a PCC
      violation. Controls and {!finish} go to the balancer. *)

  val flush_to : t -> float -> unit
  (** Process this shard's packets with time [<= t] (monotone: already
      processed packets are never revisited). Does {e not} advance the
      balancer's control plane beyond what each packet's
      {!Silkroad.Switch.process_flow} (or probe) does itself. *)

  val apply : t -> at:float -> control -> unit
  (** [flush_to at], log the {!retired_dip} in this shard's judge
      counters (the only ones that judge its flows), then {!apply_to}
      the balancer — except an attack SYN, which only its flow's owner
      shard applies (so broadcasting every control to every shard is
      safe). Controls must be applied in non-decreasing time order. *)

  val finish : t -> now:float -> unit
  (** Process every remaining packet, then advance the balancer to [now]
      (the trace horizon in {!run}; a serve session may drain later). *)

  val counts : t -> counts
end

val run :
  ?mode:mode ->
  make_switch:(unit -> Silkroad.Switch.t) ->
  trace:Packed_trace.t ->
  controls:(float * control) list ->
  unit ->
  result
(** Replay the trace. [make_switch] is called once per shard and must
    return identically configured switches (same config, same VIPs and
    pools); the trace's horizon bounds the run and every switch gets a
    final [advance ~now:horizon]. Default mode: [Batch]. *)

(** The experiment driver: replay a flow-level workload and a DIP-update
    schedule against any {!Lb.Balancer.t}, and measure what the paper
    measures.

    The driver is one {!Replay.Stepper} plus observers. The flows are
    compiled with {!Packed_trace.compile} (a SYN at each flow's start,
    early probes inside the connection-learning race window §4.3 is
    about, steady probes every [probe_interval] — which expose
    Duet-style breakage at migration time — and a FIN at its end), the
    chaos timeline and scripted updates become one {!Replay.control}
    stream, and the stepper's per-packet path walks the packets, judges
    them with {!Lb.Pcc.Flat} and applies the controls — the same loop,
    tie order and control semantics as {!Replay.run}. The driver's own
    probe advances the balancer to the packet's time and sends it one
    packet record; what it adds is the latency sample and the byte
    attribution by handling location (each probe carries the flow's
    rate over the preceding inter-probe gap), and the attribution of
    every violation to the active chaos fault window. *)

type result = {
  balancer_name : string;
  connections : int;
  broken_connections : int;
  broken_fraction : float;
  violation_packets : int;
  packets : int;
  dropped_packets : int;
  asic_bytes : float;
  cpu_bytes : float;
  slb_bytes : float;
  slb_traffic_fraction : float;  (** SLB bytes / total bytes — Figure 5a *)
  latency_median : float;  (** load-balancer-added latency (seconds) *)
  latency_p99 : float;
  telemetry : Telemetry.Snapshot.t;
      (** everything the run measured, machine-readable: the driver's own
          [driver.*] metrics (including the [driver.latency] histograms,
          overall and per handling location) merged with the balancer's
          registry. [latency_median] / [latency_p99] are read from the
          same histograms — the driver keeps no per-packet lists, so its
          memory footprint is independent of the probe count. *)
}

(** Per-packet latency added by the component that handled it, sampled
    from the paper's characterizations: sub-microsecond in the ASIC
    pipeline, 50 µs – 1 ms in an SLB (batched software processing),
    milliseconds through the switch CPU slow path. *)

val asic_latency : float
[@@silkroad.allow "surface.unused-export: the configured ASIC latency test_telemetry checks the driver's latency median against"]

val run :
  ?probe_interval:float ->
  ?chaos:Chaos.Injector.t ->
  balancer:Lb.Balancer.t ->
  flows:Simnet.Flow.t list ->
  updates:(float * Netcore.Endpoint.t * Lb.Balancer.update) list ->
  horizon:float ->
  unit ->
  result
(** Flows starting after [horizon] are ignored; probes are truncated at
    [horizon]. Updates are applied at their scheduled times.

    With [?chaos], the injector's compiled timeline is replayed
    alongside the workload (chaos before scripted updates at equal
    times), and every event before the horizon is counted in the
    injector's [chaos.*] metrics: delivered updates drive
    [balancer.update] (with the same dead-server PCC accounting as
    scripted [updates]), CPU-backlog events hit [balancer.disturb],
    SYN-flood packets are processed by the balancer but excluded from
    the measured workload, and every probe whose judgement raised the
    violation count is attributed to the active fault window in the
    injector's [chaos.*] counters, which are merged into
    [result.telemetry]. A chaos scenario that generates pool churn
    assumes it owns the update stream — don't also pass scripted
    [updates] that touch the same pools, the two streams would
    desynchronise membership. *)

val pp_result : Format.formatter -> result -> unit

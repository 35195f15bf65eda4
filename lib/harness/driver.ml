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
  slb_traffic_fraction : float;
  latency_median : float;
  latency_p99 : float;
  telemetry : Telemetry.Snapshot.t;
}

(* sub-microsecond pipeline latency (§5.2: "full line-rate load
   balancing with sub-microsecond processing latency") *)
let asic_latency = 0.7e-6

(* "SLBs add a high latency of 50 us to 1 ms" (§2.2) *)
let slb_latency = Simnet.Dist.lognormal_of_quantiles ~median:150e-6 ~p99:1e-3

(* redirected packets cross PCI-E and the switch software: "a few
   milliseconds delay to the redirected TCP SYN packet" (§4.2) *)
let cpu_latency = Simnet.Dist.lognormal_of_quantiles ~median:2e-3 ~p99:10e-3

let run ?chaos ~balancer ~(trace : Packed_trace.t) ~updates () =
  let horizon = trace.Packed_trace.horizon in
  (* streaming latency histograms and byte gauges: the driver's
     footprint does not grow with the probe count *)
  let reg = Telemetry.Registry.create () in
  let lat_rng = Simnet.Prng.create ~seed:0x1a7 in
  let h_latency = Telemetry.Registry.histogram reg "driver.latency" in
  let lat where =
    Telemetry.Registry.histogram reg ~labels:[ ("location", where) ] "driver.latency"
  in
  let h_asic = lat "asic" in
  let h_cpu = lat "switch-cpu" in
  let h_slb = lat "slb" in
  let g_asic = Telemetry.Registry.gauge reg "driver.asic_bytes" in
  let g_cpu = Telemetry.Registry.gauge reg "driver.cpu_bytes" in
  let g_slb = Telemetry.Registry.gauge reg "driver.slb_bytes" in
  let attribute gauge h ~bytes latency =
    Telemetry.Registry.Gauge.add gauge bytes;
    Telemetry.Histogram.observe h_latency latency;
    Telemetry.Histogram.observe h latency
  in
  let events = match chaos with Some inj -> Chaos.Injector.events inj | None -> [] in
  Option.iter
    (fun inj ->
      List.iter
        (fun (ev : Chaos.Engine.event) ->
          if ev.Chaos.Engine.time < horizon then Chaos.Injector.note_event inj ev)
        events)
    chaos;
  (* chaos before scripted updates at equal times; the stable sort keeps
     each stream's own order *)
  let controls =
    List.stable_sort
      (fun (a, _) (b, _) -> Float.compare a b)
      (Replay.controls_of_chaos ~horizon events @ Replay.controls_of_updates ~horizon updates)
  in
  (* per flow index: the previous packet's time. A flow's first packet
     is its SYN at its start, so the gap it sees is the 1e-4 floor,
     whatever this starts at. *)
  let last = Array.make (Packed_trace.n_flows trace) Float.infinity in
  let rate = trace.Packed_trace.flow_rate in
  let tuples = trace.Packed_trace.flow_tuples in
  (* one probe of flow [fi] at [at]: its bytes are the flow's rate over
     the gap since its previous probe, attributed with a latency sample
     to whichever component handled it *)
  let probe fi at flags =
    let bytes = rate.(fi) *. Float.max (at -. last.(fi)) 1e-4 in
    last.(fi) <- at;
    let pkt = Netcore.Packet.make ~flags ~payload_len:Replay.payload_len tuples.(fi) in
    balancer.Lb.Balancer.advance ~now:at;
    let outcome = balancer.Lb.Balancer.process ~now:at pkt in
    (match outcome.Lb.Balancer.location with
     | Lb.Balancer.Asic -> attribute g_asic h_asic ~bytes asic_latency
     | Lb.Balancer.Switch_cpu ->
       attribute g_cpu h_cpu ~bytes (Simnet.Dist.sample cpu_latency lat_rng)
     | Lb.Balancer.Slb -> attribute g_slb h_slb ~bytes (Simnet.Dist.sample slb_latency lat_rng));
    Option.value outcome.Lb.Balancer.dip ~default:Lb.Pcc.Flat.no_dip
  in
  let on_violation at =
    Option.iter (fun inj -> Chaos.Injector.attribute_violation inj ~now:at) chaos
  in
  let st =
    Replay.Stepper.of_balancer
      (Replay.Stepper.make_shared ~trace ~shards:1)
      ~shard:0 balancer ~probe ~on_violation
  in
  List.iter (fun (at, ctrl) -> Replay.Stepper.apply st ~at ctrl) controls;
  Replay.Stepper.finish st ~now:horizon;
  let asic_bytes = Telemetry.Registry.Gauge.value g_asic in
  let cpu_bytes = Telemetry.Registry.Gauge.value g_cpu in
  let slb_bytes = Telemetry.Registry.Gauge.value g_slb in
  let c = Replay.Stepper.counts st in
  let count name = Telemetry.Registry.Counter.add (Telemetry.Registry.counter reg name) in
  count "driver.packets" c.Replay.c_packets;
  count "driver.dropped_packets" c.Replay.c_dropped;
  let total_bytes = asic_bytes +. cpu_bytes +. slb_bytes in
  (* one combined snapshot: the driver's own metrics plus everything the
     balancer reports (merged, so neither registry is mutated) *)
  let combined = Telemetry.Registry.create () in
  Telemetry.Registry.merge_into ~into:combined reg;
  Telemetry.Registry.merge_into ~into:combined (balancer.Lb.Balancer.metrics ());
  Option.iter
    (fun inj -> Telemetry.Registry.merge_into ~into:combined (Chaos.Injector.metrics inj))
    chaos;
  {
    balancer_name = balancer.Lb.Balancer.name;
    connections = c.Replay.c_connections;
    broken_connections = c.Replay.c_broken;
    broken_fraction =
      (if c.Replay.c_connections = 0 then 0.
       else float_of_int c.Replay.c_broken /. float_of_int c.Replay.c_connections);
    violation_packets = c.Replay.c_violations;
    packets = c.Replay.c_packets;
    dropped_packets = c.Replay.c_dropped;
    asic_bytes;
    cpu_bytes;
    slb_bytes;
    slb_traffic_fraction = (if total_bytes > 0. then slb_bytes /. total_bytes else 0.);
    latency_median = Simnet.Stats.median_of_histogram h_latency;
    latency_p99 = Simnet.Stats.p99_of_histogram h_latency;
    telemetry = Telemetry.Registry.snapshot combined;
  }

let pp_result ppf r =
  Format.fprintf ppf
    "%s: conns=%d broken=%d (%.4f%%) packets=%d dropped=%d slb-traffic=%.1f%%"
    r.balancer_name r.connections r.broken_connections (100. *. r.broken_fraction) r.packets
    r.dropped_packets (100. *. r.slb_traffic_fraction)

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

type acc = {
  balancer : Lb.Balancer.t;
  pcc : Lb.Pcc.Flat.t;
  judged : Lb.Pcc.Flat.counters;
  chaos : Chaos.Injector.t option;
  lat_rng : Simnet.Prng.t;
  metrics : Telemetry.Registry.t;
  (* streaming latency histograms replace the old per-packet list: the
     driver's footprint no longer grows with the probe count *)
  h_latency : Telemetry.Histogram.t;
  h_lat_asic : Telemetry.Histogram.t;
  h_lat_cpu : Telemetry.Histogram.t;
  h_lat_slb : Telemetry.Histogram.t;
  g_asic_bytes : Telemetry.Registry.Gauge.t;
  g_cpu_bytes : Telemetry.Registry.Gauge.t;
  g_slb_bytes : Telemetry.Registry.Gauge.t;
}

let make_acc ?chaos ~n_flows balancer =
  let reg = Telemetry.Registry.create () in
  let lat where =
    Telemetry.Registry.histogram reg ~labels:[ ("location", where) ] "driver.latency"
  in
  {
    balancer;
    pcc = Lb.Pcc.Flat.create n_flows;
    judged = Lb.Pcc.Flat.counters ();
    chaos;
    lat_rng = Simnet.Prng.create ~seed:0x1a7;
    metrics = reg;
    h_latency = Telemetry.Registry.histogram reg "driver.latency";
    h_lat_asic = lat "asic";
    h_lat_cpu = lat "switch-cpu";
    h_lat_slb = lat "slb";
    g_asic_bytes = Telemetry.Registry.gauge reg "driver.asic_bytes";
    g_cpu_bytes = Telemetry.Registry.gauge reg "driver.cpu_bytes";
    g_slb_bytes = Telemetry.Registry.gauge reg "driver.slb_bytes";
  }

let observe_latency acc per_location v =
  Telemetry.Histogram.observe acc.h_latency v;
  Telemetry.Histogram.observe per_location v

(* One probe of flow [fi] at [at], carrying [bytes] of traffic. *)
let probe acc (trace : Packed_trace.t) ~flags ~bytes fi at =
  let pkt = Netcore.Packet.make ~flags ~payload_len:1024 trace.Packed_trace.flow_tuples.(fi) in
  acc.balancer.Lb.Balancer.advance ~now:at;
  let outcome = acc.balancer.Lb.Balancer.process ~now:at pkt in
  (match outcome.Lb.Balancer.location with
   | Lb.Balancer.Asic ->
     Telemetry.Registry.Gauge.add acc.g_asic_bytes bytes;
     observe_latency acc acc.h_lat_asic asic_latency
   | Lb.Balancer.Switch_cpu ->
     Telemetry.Registry.Gauge.add acc.g_cpu_bytes bytes;
     observe_latency acc acc.h_lat_cpu (Simnet.Dist.sample cpu_latency acc.lat_rng)
   | Lb.Balancer.Slb ->
     Telemetry.Registry.Gauge.add acc.g_slb_bytes bytes;
     observe_latency acc acc.h_lat_slb (Simnet.Dist.sample slb_latency acc.lat_rng));
  let dip = Option.value outcome.Lb.Balancer.dip ~default:Lb.Pcc.Flat.no_dip in
  let violations = acc.judged.Lb.Pcc.Flat.violations in
  Lb.Pcc.Flat.judge acc.pcc acc.judged fi dip ~ends:(Netcore.Tcp_flags.is_connection_end flags);
  if acc.judged.Lb.Pcc.Flat.violations > violations then
    Option.iter (fun inj -> Chaos.Injector.attribute_violation inj ~now:at) acc.chaos

let run ?(early_offsets = Packed_trace.default_early) ?(probe_interval = 15.) ?chaos ~balancer
    ~flows ~updates ~horizon () =
  let trace = Packed_trace.compile ~early_offsets ~probe_interval ~horizon flows in
  let acc = make_acc ?chaos ~n_flows:(Packed_trace.n_flows trace) balancer in
  let events = match chaos with Some inj -> Chaos.Injector.events inj | None -> [] in
  (match chaos with
   | Some inj ->
     List.iter
       (fun (ev : Chaos.Engine.event) ->
         if ev.Chaos.Engine.time < horizon then Chaos.Injector.note_event inj ev)
       events
   | None -> ());
  (* chaos before scripted updates at equal times; the stable sort keeps
     each stream's own order *)
  let controls =
    List.stable_sort
      (fun (a, _) (b, _) -> Float.compare a b)
      (Replay.controls_of_chaos ~horizon events @ Replay.controls_of_updates ~horizon updates)
  in
  (* per flow index (the compiled trace keeps exactly the flows starting
     before the horizon, in order): byte rate and previous packet time *)
  let kept = Array.of_list (List.filter (fun f -> f.Simnet.Flow.start < horizon) flows) in
  let rate = Array.map (fun f -> f.Simnet.Flow.bytes_per_sec) kept in
  let last = Array.map (fun f -> f.Simnet.Flow.start) kept in
  let flags_tab = Array.init 64 Netcore.Tcp_flags.of_byte in
  let times = trace.Packed_trace.times in
  let n = Array.length times in
  let cursor = ref 0 in
  (* packets at time <= [at] fire first: a control at [at] sees every
     probe stamped [at] already processed, as in Replay.Stepper *)
  let fire_to at =
    while !cursor < n && times.(!cursor) <= at do
      let p = !cursor in
      let fi = trace.Packed_trace.pkt_flow.(p) and t = times.(p) in
      let flags = flags_tab.(Char.code (Bytes.get trace.Packed_trace.pkt_flags p)) in
      let bytes = rate.(fi) *. Float.max (t -. last.(fi)) 1e-4 in
      last.(fi) <- t;
      probe acc trace ~flags ~bytes fi t;
      incr cursor
    done
  in
  List.iter
    (fun (at, ctrl) ->
      fire_to at;
      Option.iter (Lb.Pcc.Flat.exclude acc.judged) (Replay.retired_dip ctrl);
      Replay.apply_to balancer ~at ctrl)
    controls;
  fire_to horizon;
  balancer.Lb.Balancer.advance ~now:horizon;
  let asic_bytes = Telemetry.Registry.Gauge.value acc.g_asic_bytes in
  let cpu_bytes = Telemetry.Registry.Gauge.value acc.g_cpu_bytes in
  let slb_bytes = Telemetry.Registry.Gauge.value acc.g_slb_bytes in
  let j = acc.judged in
  let count name = Telemetry.Registry.Counter.add (Telemetry.Registry.counter acc.metrics name) in
  count "driver.packets" j.Lb.Pcc.Flat.packets;
  count "driver.dropped_packets" j.Lb.Pcc.Flat.dropped;
  let total_bytes = asic_bytes +. cpu_bytes +. slb_bytes in
  (* one combined snapshot: the driver's own metrics plus everything the
     balancer reports (merged, so neither registry is mutated) *)
  let combined = Telemetry.Registry.create () in
  Telemetry.Registry.merge_into ~into:combined acc.metrics;
  Telemetry.Registry.merge_into ~into:combined (balancer.Lb.Balancer.metrics ());
  (match chaos with
   | Some inj -> Telemetry.Registry.merge_into ~into:combined (Chaos.Injector.metrics inj)
   | None -> ());
  {
    balancer_name = balancer.Lb.Balancer.name;
    connections = j.Lb.Pcc.Flat.total;
    broken_connections = j.Lb.Pcc.Flat.broken;
    broken_fraction =
      (if j.Lb.Pcc.Flat.total = 0 then 0.
       else float_of_int j.Lb.Pcc.Flat.broken /. float_of_int j.Lb.Pcc.Flat.total);
    violation_packets = j.Lb.Pcc.Flat.violations;
    packets = j.Lb.Pcc.Flat.packets;
    dropped_packets = j.Lb.Pcc.Flat.dropped;
    asic_bytes;
    cpu_bytes;
    slb_bytes;
    slb_traffic_fraction = (if total_bytes > 0. then slb_bytes /. total_bytes else 0.);
    latency_median = Simnet.Stats.median_of_histogram acc.h_latency;
    latency_p99 = Simnet.Stats.p99_of_histogram acc.h_latency;
    telemetry = Telemetry.Registry.snapshot combined;
  }

let pp_result ppf r =
  Format.fprintf ppf
    "%s: conns=%d broken=%d (%.4f%%) packets=%d dropped=%d slb-traffic=%.1f%%"
    r.balancer_name r.connections r.broken_connections (100. *. r.broken_fraction) r.packets
    r.dropped_packets (100. *. r.slb_traffic_fraction)

type spec = {
  scenario : Chaos.Scenario.t;
  seed : int;
  seconds : float;
  rate : float;
  n_vips : int;
  dips_per_vip : int;
  probe_interval : float;
}

let default_spec scenario ~seed =
  {
    scenario;
    seed;
    seconds = 240.;
    rate = 100.;
    n_vips = 2;
    dips_per_vip = 8;
    probe_interval = 15.;
  }

let smoke_spec scenario ~seed =
  {
    scenario;
    seed;
    seconds = 130.;
    rate = 40.;
    n_vips = 1;
    dips_per_vip = 8;
    probe_interval = 15.;
  }

let balancer_names = [ "silkroad"; "slb"; "duet"; "ecmp" ]

let make_balancer name ~seed ~vips =
  match name with
  | "silkroad" -> snd (Common.silkroad ~vips ())
  | "slb" ->
    (* finite packet budget: CPU stalls debit the token bucket and
       surface as overload drops *)
    fst (Baselines.Slb.create ~seed ~capacity_pps:25_000. ~vips ())
  | "duet" ->
    (* a 60 s migrate-back period puts the dangerous repair-time
       remapping inside every scenario cycle *)
    fst (Baselines.Duet.create ~seed ~policy:(Baselines.Duet.Migrate_every 60.) ~vips ())
  | "ecmp" -> Baselines.Ecmp_lb.create_with ~seed vips
  | other -> invalid_arg (Printf.sprintf "Chaos_runner.make_balancer: unknown balancer %S" other)

let run spec ~balancer =
  let vips = Common.vips_of ~n_vips:spec.n_vips ~dips_per_vip:spec.dips_per_vip in
  (* the chaos scenario owns the update stream, so the workload carries
     flows only *)
  let workload =
    Common.scenario ~seed:spec.seed ~n_vips:spec.n_vips ~dips_per_vip:spec.dips_per_vip
      ~conns_per_sec_per_vip:spec.rate ~updates_per_min:0. ~trace_seconds:spec.seconds ()
  in
  let horizon = workload.Common.horizon in
  let injector =
    Chaos.Injector.create ~scenario:spec.scenario ~seed:spec.seed ~vips ~horizon ()
  in
  let b = make_balancer balancer ~seed:spec.seed ~vips in
  let result =
    Harness.Driver.run ~chaos:injector ~balancer:b
      ~trace:
        (Harness.Packed_trace.compile ~probe_interval:spec.probe_interval ~horizon
           workload.Common.flows)
      ~updates:[] ()
  in
  let report =
    Chaos.Report.build ~scenario:spec.scenario ~seed:spec.seed ~horizon
      ~balancer:result.Harness.Driver.balancer_name
      ~connections:result.Harness.Driver.connections
      ~broken_connections:result.Harness.Driver.broken_connections
      ~broken_fraction:result.Harness.Driver.broken_fraction
      ~violation_packets:result.Harness.Driver.violation_packets
      ~dropped_packets:result.Harness.Driver.dropped_packets
      ~telemetry:result.Harness.Driver.telemetry
  in
  (result, report)

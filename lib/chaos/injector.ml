type t = {
  compiled : Engine.t;
  metrics : Telemetry.Registry.t;
  c_violations : Telemetry.Registry.Counter.t;
  c_delivered : Telemetry.Registry.Counter.t;
  c_dropped : Telemetry.Registry.Counter.t;
  c_suppressed : Telemetry.Registry.Counter.t;
  c_dips_failed : Telemetry.Registry.Counter.t;
  c_dips_recovered : Telemetry.Registry.Counter.t;
  c_cpu_backlog : Telemetry.Registry.Counter.t;
  c_syn_packets : Telemetry.Registry.Counter.t;
  c_switch_failures : Telemetry.Registry.Counter.t;
  c_switch_recoveries : Telemetry.Registry.Counter.t;
  c_vip_migrations : Telemetry.Registry.Counter.t;
}

let create ~scenario ~seed ~vips ~horizon () =
  let compiled = Engine.compile ~scenario ~seed ~vips ~horizon in
  let reg = Telemetry.Registry.create () in
  {
    compiled;
    metrics = reg;
    c_violations = Telemetry.Registry.counter reg "chaos.violations";
    c_delivered = Telemetry.Registry.counter reg "chaos.updates_delivered";
    c_dropped = Telemetry.Registry.counter reg "chaos.updates_dropped";
    c_suppressed = Telemetry.Registry.counter reg "chaos.updates_suppressed";
    c_dips_failed = Telemetry.Registry.counter reg "chaos.dips_failed";
    c_dips_recovered = Telemetry.Registry.counter reg "chaos.dips_recovered";
    c_cpu_backlog = Telemetry.Registry.counter reg "chaos.cpu_backlog_items";
    c_syn_packets = Telemetry.Registry.counter reg "chaos.syn_flood_packets";
    c_switch_failures = Telemetry.Registry.counter reg "chaos.switch_failures";
    c_switch_recoveries = Telemetry.Registry.counter reg "chaos.switch_recoveries";
    c_vip_migrations = Telemetry.Registry.counter reg "chaos.vip_migrations";
  }

let events t = t.compiled.Engine.events
let metrics t = t.metrics

let note_event t (ev : Engine.event) =
  Telemetry.Registry.Counter.incr
    (Telemetry.Registry.counter t.metrics ~labels:[ ("fault", ev.fault) ] "chaos.events");
  match ev.op with
  | Engine.Deliver_update _ -> Telemetry.Registry.Counter.incr t.c_delivered
  | Engine.Update_dropped _ -> Telemetry.Registry.Counter.incr t.c_dropped
  | Engine.Update_suppressed _ -> Telemetry.Registry.Counter.incr t.c_suppressed
  | Engine.Dip_died _ -> Telemetry.Registry.Counter.incr t.c_dips_failed
  | Engine.Dip_recovered _ -> Telemetry.Registry.Counter.incr t.c_dips_recovered
  | Engine.Cpu_backlog n -> Telemetry.Registry.Counter.add t.c_cpu_backlog n
  | Engine.Syn_packet _ -> Telemetry.Registry.Counter.incr t.c_syn_packets
  | Engine.Switch_failed _ -> Telemetry.Registry.Counter.incr t.c_switch_failures
  | Engine.Switch_recovered _ -> Telemetry.Registry.Counter.incr t.c_switch_recoveries
  | Engine.Vip_migrated _ -> Telemetry.Registry.Counter.incr t.c_vip_migrations

let active_fault t ~now = Engine.active_fault t.compiled ~now

let attribute_violation t ~now =
  Telemetry.Registry.Counter.incr t.c_violations;
  let label =
    match active_fault t ~now with Some l -> l | None -> Scenario.none_label
  in
  Telemetry.Registry.Counter.incr
    (Telemetry.Registry.counter t.metrics ~labels:[ ("fault", label) ] "chaos.violations")

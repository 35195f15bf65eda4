type t = {
  rate : float;
  mutable busy_until : float;
  c_items : Telemetry.Registry.Counter.t;
  c_batches : Telemetry.Registry.Counter.t;
  g_backlog : Telemetry.Registry.Gauge.t;
  h_queue_delay : Telemetry.Histogram.t;
}

let create ?metrics ~insertions_per_sec () =
  assert (insertions_per_sec > 0.);
  let reg = match metrics with Some r -> r | None -> Telemetry.Registry.create () in
  {
    rate = insertions_per_sec;
    busy_until = 0.;
    c_items = Telemetry.Registry.counter reg "switch_cpu.work_items";
    c_batches = Telemetry.Registry.counter reg "switch_cpu.batches";
    g_backlog = Telemetry.Registry.gauge reg "switch_cpu.backlog_seconds";
    h_queue_delay = Telemetry.Registry.histogram reg "switch_cpu.queue_delay";
  }

let submit t ~now ~work_items =
  assert (work_items >= 0);
  let start = Float.max now t.busy_until in
  let finish = start +. (float_of_int work_items /. t.rate) in
  t.busy_until <- finish;
  Telemetry.Registry.Counter.add t.c_items work_items;
  Telemetry.Registry.Counter.incr t.c_batches;
  (* sojourn time of this batch: backlog wait plus its own service *)
  Telemetry.Histogram.observe t.h_queue_delay (finish -. now);
  Telemetry.Registry.Gauge.set t.g_backlog (finish -. now);
  finish

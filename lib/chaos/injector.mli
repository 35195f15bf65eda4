(** Runtime side of the chaos engine: a compiled scenario plus the
    [chaos.*] telemetry it fills in as the harness replays the timeline.

    The harness driver ({!Harness.Driver.run}'s [?chaos] argument)
    schedules every {!Engine.event} into the simulation, calls
    {!note_event} as each fires, and calls {!attribute_violation} for
    every PCC violation its probes observe — so the final snapshot
    explains each violation by the fault window it happened in.

    Counters:
    - [chaos.events\{fault\}] — injected events per fault
    - [chaos.violations] and [chaos.violations\{fault\}] — PCC violations,
      total and attributed (label {!Scenario.none_label} when no fault
      window was active)
    - [chaos.updates_delivered] / [chaos.updates_dropped] /
      [chaos.updates_suppressed] — control-channel outcomes
    - [chaos.dips_failed] / [chaos.dips_recovered]
    - [chaos.cpu_backlog_items], [chaos.syn_flood_packets]
    - [chaos.switch_failures] / [chaos.switch_recoveries] /
      [chaos.vip_migrations] — topology re-route events *)

type t

val create :
  scenario:Scenario.t ->
  seed:int ->
  vips:(Netcore.Endpoint.t * Lb.Dip_pool.t) list ->
  horizon:float ->
  unit ->
  t

val events : t -> Engine.event list
val metrics : t -> Telemetry.Registry.t

val note_event : t -> Engine.event -> unit
(** Account one timeline event as it is injected. *)

val attribute_violation : t -> now:float -> unit
(** Account one PCC violation observed at [now], attributed via
    {!Engine.active_fault}. *)


(** A long-running control session: one or more hot SilkRoad switches
    driven by {!Protocol} commands while replay traffic flows through
    them concurrently.

    The session owns {!Harness.Replay.Stepper}s — the exact per-shard
    incremental loop {!Harness.Replay.run} is built from. Packets,
    updates and chaos controls reach the switches only through
    {!Harness.Replay.Stepper.apply} / [flush_to] / [finish]. VIP
    membership is the one exception: [vip-add] and [vip-remove] flush
    every stepper to the session's time, then call
    {!Silkroad.Switch.add_vip} / {!Silkroad.Switch.remove_vip} on each
    shard's switch directly. Neither call reads a clock or advances the
    switch, and [add_vip] is the call a batch replay's switch factory
    makes before the first packet. So a scripted session whose
    [vip-add]s come before any packet to their VIP, and that removes no
    VIP, is counter-identical, down to the merged telemetry snapshot, to
    a batch replay of the same trace with those pools registered up
    front and the equivalent control list: both make the same packet
    and control calls in the same order, and no packet can tell when a
    VIP it finds was registered (the test suite pins this).

    Time is virtual and owned by the session: it only moves on [advance]
    (and [drain], which jumps to the trace horizon), so sessions are
    deterministic regardless of wall-clock scheduling.

    {2 Sequence numbers (at-least-once delivery)}

    A command carrying [@N] is applied only when [N] is greater than the
    highest sequence number already applied; a re-delivered (stale)
    number is acked [ok @N duplicate] without touching any state.
    Failed commands do not consume their sequence number, so a client
    retrying an errored command gets the same error again — re-delivery
    is idempotent either way. Unsequenced commands always apply.

    {2 Telemetry}

    The session reports under [control.*] in its own registry:
    [control.commands] (labeled by command), [control.errors],
    [control.duplicates], [control.pending_updates],
    [control.update_apply_seconds] (request-to-finish latency of every
    3-step update, via {!Silkroad.Update_job.on_done}),
    [control.version_recycle_seconds] (how long an update's old version
    lingered before DIPPoolTable destroyed it, observed at command
    granularity), and [control.transit_population] (TransitTable Bloom
    population sampled after every command). *)

type t

val create :
  ?cfg:Silkroad.Config.t ->
  ?shards:int ->
  ?vips:(Netcore.Endpoint.t * Lb.Dip_pool.t) list ->
  ?trace:Harness.Packed_trace.t ->
  unit ->
  t
[@@silkroad.allow "surface.unused-option: cfg lets test_verify replay each model-checker counterexample through serve on the checker's small tables, and test_control slow the switch CPU"]
(** [?cfg] (default {!Silkroad.Config.default}) builds every switch.
    [?shards] (default 1) switches partitioned as in sharded replay,
    each on the {!Silkroad.Switch.process_batch} packet path; [?vips]
    are pre-registered on every switch before any traffic, exactly like
    [make_switch] in a batch run. A [vip-add] at time 0 is equivalent
    only when no flow of the trace starts at exactly 0: like every pool
    change, it first delivers the packets due at the session clock, so
    a SYN at 0 reaches a switch without the VIP, is dropped and its
    connection counts as broken. [?trace] (default empty) is the
    concurrent data-plane load, whose packets are interleaved with
    commands in virtual-time order. *)

val exec : t -> Protocol.line -> Protocol.response
[@@silkroad.allow "surface.unused-export: test_control drives the session with command values; the program parses lines through exec_line first"]
val exec_line : t -> string -> Protocol.response option
(** [None] for blank/comment lines; parse failures come back as [err]
    responses (and count as [control.errors]) without touching state. *)

val now : t -> float
[@@silkroad.allow "surface.unused-export: test_control sends packets at the session clock"]
val drained : t -> bool
val closed : t -> bool

val counts : t -> Harness.Replay.counts
(** PCC accounting summed over shards — the same numbers a batch
    {!Harness.Replay.run} of the equivalent control list reports. *)

val pending_updates : t -> int
(** Control-path backlog of shard 0's switch. *)

val switches : t -> Silkroad.Switch.t array
[@@silkroad.allow "surface.unused-export: test_control checks the switch state behind the session"]

val control_metrics : t -> Telemetry.Registry.t
(** The session's own [control.*] registry. *)

val switch_metrics : t -> Telemetry.Registry.t
(** Fresh merge of every shard switch's registry — the piece compared
    byte-for-byte against a batch replay's switch telemetry. *)

val metrics : t -> Telemetry.Registry.t
(** [control_metrics] and [switch_metrics] merged. *)

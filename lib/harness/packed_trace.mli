(** Flat pre-encoded packet traces: the one packet schedule.

    A packed trace is a workload's probe schedule with all the boxing
    stripped: per-packet time, flow index and flag byte live in three
    parallel arrays sorted by (time, emission order), and per-flow
    metadata (5-tuple, VIP, id) lives in flow-indexed arrays. One loop
    walks it on one switch or balancer, {!Replay.Stepper}: the replay
    engine, serve mode, the experiment driver and the model checker
    all run on it, and [Netwide.Replay] walks it across a fabric. Tie
    order is defined here once: equal-time packets fire in flow-major
    emission order. *)

type t = {
  horizon : float;
  vips : Netcore.Endpoint.t array;  (** distinct VIPs, first-appearance order *)
  flow_ids : int array;
  flow_vip : int array;  (** per flow: index into [vips] *)
  flow_tuples : Netcore.Five_tuple.t array;
  flow_rate : float array;  (** per flow: {!Simnet.Flow.t.bytes_per_sec} *)
  times : float array;  (** per packet; sorted, ties in emission order *)
  pkt_flow : int array;  (** per packet: flow index *)
  pkt_flags : Bytes.t;  (** per packet: {!Netcore.Tcp_flags.to_byte} *)
}

val n_flows : t -> int
val n_packets : t -> int

val time_order : float array -> int array
[@@silkroad.allow "surface.unused-export: the bucket sort compile applies, exposed so test_harness can check it against a stable sort on times over every exponent"]
(** The indices of [times] sorted by time, equal times in index order:
    the permutation {!compile} applies to the emitted packets, by the
    same bucket sort (see {!compile}'s cost), so linear in the length
    for any spread of times; [-0.0] ties with [+0.0]. Raises
    [Invalid_argument] on a negative or non-finite time. *)

val compile :
  ?early_offsets:float list ->
  ?probe_interval:float ->
  horizon:float ->
  Simnet.Flow.t list ->
  t
(** Pre-encode the packet trains of these flows. Each flow's train is
    a SYN at its start, a data probe at each early offset (default
    250 µs, 1 ms, 5 ms, 20 ms and 100 ms, inside the connection-learning
    race window §4.3 is about) and every [probe_interval] (default 15 s) after
    the start while the flow lives (equal times once), and a FIN when
    it ends before the horizon. Flows starting at or after the horizon
    are dropped; the rest keep their list order as flow indices, and
    equal-time packets fire in that flow-major emission order.

    Raises [Invalid_argument] when [probe_interval] is not finite and
    [> 0], an early offset is not finite and [> 0], a flow's start or
    duration is negative or not finite, a flow's steady chain stops
    advancing ([t +. probe_interval = t] before the flow ends), or the
    schedule would hold more than 2{^32} packets. That last bound is
    checked against an O(1) per-flow estimate (lifetime over
    [probe_interval]) before any flow's chain is walked, so a finite
    but huge lifetime fails at once instead of walking ~10{^13} probes.

    Cost: linear in the packets. The first pass over the flows finds
    the span every packet time lies in (earliest start to latest
    [min finish horizon]); a counting pass walks every train and counts
    its packets into up to 2048 coarse time buckets, linear in time, so
    bucket order is time order. The arrays are then sized exactly and
    each train is written straight into its buckets as (float time,
    packed flow index and flags) pairs, emission order kept inside each
    bucket. Each bucket is sorted in place while it sits in cache: a
    fine counting pass over the bucket's own span, then an insertion
    sort of each fine bucket; a fine bucket of over 64 packets (times
    clustered below the fine pass's resolution) takes a stable LSD
    radix sort instead, so equal or clustered times stay linear. No
    per-packet list, tuple or boxed float is built. Compile allocates
    about 18 bytes a packet on the netwide-failover schedule (the
    [times], [pkt_flow] and [pkt_flags] arrays, the payload array
    becoming [pkt_flow] in place, plus the flow arrays and one bucket's
    scratch); the radix sort over the whole schedule it replaced
    allocated 44. *)

type partition = {
  pt_shards : int;
  sh_times : float array array;  (** per shard: packet times, globally ordered *)
  sh_flows : Netcore.Five_tuple.t array array;
  sh_flags : Netcore.Tcp_flags.t array array;  (** decoded flag sets *)
  sh_pflow : int array array;  (** per shard packet: global flow index *)
}
(** A trace copied into per-shard packed sub-traces: one contiguous
    (times, flows, flags, flow-index) quadruple per shard, each
    preserving the global (time, emission) order. {!Replay.Stepper}
    does not build one: it reads the trace in place through per-shard
    packet-index arrays. perfbench still times [partition] as
    [packed_trace.partition_s]. *)

val partition : t -> shards:int -> shard_of:(Netcore.Five_tuple.t -> int) -> partition
(** Gather each shard's packets into contiguous arrays (two linear
    passes; flag bytes decoded through a 64-entry table). [shard_of]
    must return values in [0, shards); raises [Invalid_argument]
    otherwise or when [shards < 1]. *)

(** Flat pre-encoded packet traces: the one packet schedule.

    A packed trace is a workload's probe schedule with all the boxing
    stripped: per-packet time, flow index and flag byte live in three
    parallel arrays sorted by (time, emission order), and per-flow
    metadata (5-tuple, VIP, id) lives in flow-indexed arrays. Every
    engine walks this schedule with one cursor: the experiment driver
    against any balancer, and the replay engine through
    {!Silkroad.Switch.process_batch} without allocating a packet record
    per probe. Tie order is defined here once: equal-time packets fire
    in flow-major emission order. *)

type t = {
  horizon : float;
  vips : Netcore.Endpoint.t array;  (** distinct VIPs, first-appearance order *)
  flow_ids : int array;
  flow_vip : int array;  (** per flow: index into [vips] *)
  flow_tuples : Netcore.Five_tuple.t array;
  times : float array;  (** per packet; sorted, ties in emission order *)
  pkt_flow : int array;  (** per packet: flow index *)
  pkt_flags : Bytes.t;  (** per packet: {!Netcore.Tcp_flags.to_byte} *)
}

val n_flows : t -> int
val n_packets : t -> int

val dummy_tuple : Netcore.Five_tuple.t
(** Placeholder tuple ([Endpoint.none] to [Endpoint.none]) used to
    initialise flow arrays before they are filled. *)

val default_early : float list
(** The default [early_offsets]: 250 µs, 1 ms, 5 ms, 20 ms, 100 ms —
    inside the connection-learning race window §4.3 is about. *)

val probe_points :
  early_offsets:float list ->
  probe_interval:float ->
  horizon:float ->
  Simnet.Flow.t ->
  (float * Netcore.Tcp_flags.t) list
(** One flow's packet train, as (time, flags) pairs in strictly
    increasing time order: a SYN at the flow's start, a data probe at
    each early offset and every [probe_interval] after the start while
    the flow lives, and a FIN when the flow ends before the horizon.
    Empty when the flow starts at or after the horizon. *)

val time_order : float array -> int array
(** The indices of [times] sorted by time, equal times in index order:
    the permutation {!compile} applies to the emitted packets. *)

val compile :
  ?early_offsets:float list ->
  ?probe_interval:float ->
  horizon:float ->
  Simnet.Flow.t list ->
  t
(** Pre-encode the packet trains of these flows. Each flow's train is
    a SYN at its start, a data probe at each early offset (default
    {!default_early}) and every [probe_interval] (default 15 s) after
    the start while the flow lives, and a FIN when it ends before the
    horizon. Flows starting at or after the horizon are dropped; the
    rest keep their list order as flow indices. *)

type partition = {
  pt_shards : int;
  sh_times : float array array;  (** per shard: packet times, globally ordered *)
  sh_flows : Netcore.Five_tuple.t array array;
  sh_flags : Netcore.Tcp_flags.t array array;  (** decoded flag sets *)
  sh_pflow : int array array;  (** per shard packet: global flow index *)
}
(** A trace pre-partitioned into per-shard packed sub-traces: one
    contiguous (times, flows, flags, flow-index) quadruple per shard,
    each preserving the global (time, emission) order. Built once at
    compile time so the replay hot loop — including the parallel
    worker handoff — touches only flat arrays. *)

val partition : t -> shards:int -> shard_of:(Netcore.Five_tuple.t -> int) -> partition
(** Gather each shard's packets into contiguous arrays (two linear
    passes; flag bytes decoded through a 64-entry table). [shard_of]
    must return values in [0, shards); raises [Invalid_argument]
    otherwise or when [shards < 1]. *)

(** The SilkRoad switch: data plane, control plane, and the 3-step PCC
    update protocol (§4, Figure 10).

    {2 Data plane (per packet, line rate)}

    A packet to a VIP first looks up ConnTable by its 5-tuple digest.
    On an exact hit it is forwarded to the DIP its stored version maps to
    in DIPPoolTable. On a false hit, a SYN is redirected to the switch
    CPU for collision repair; a non-SYN packet is (wrongly) forwarded by
    the matched entry — the rare digest-false-positive cost §4.2
    quantifies. On a miss, VIPTable and the TransitTable supply the
    version, as the VIP's update job ({!Update_job}) has them. Misses
    raise a learning event so the switch CPU can install the entry.

    {2 Control plane (switch CPU)}

    Learning events batch in the learning filter (capacity/timeout) and
    are inserted into ConnTable at the CPU's bounded rate; connection
    teardown (FIN/RST) and idle expiry delete entries and release their
    version's refcount. A DIP-pool update runs {!Update_job}'s 3-step
    protocol, whose barriers wait on the connections not yet inserted.

    Time is supplied by the caller ([now]), so the switch composes with
    the discrete-event harness. *)

type t

val create :
  ?metrics:Telemetry.Registry.t ->
  ?check:[ `Fail | `Warn | `Off ] ->
  Config.t ->
  t
(** [?metrics] is the registry the switch and all its ASIC primitives
    (ConnTable, TransitTable, learning filter, switch CPU) report
    through; a private one is created when absent. See {!metrics}.

    [?check] (default [`Warn]) runs {!Program.feasibility} on the
    configuration: [`Fail] raises [Invalid_argument] when the implied
    tables cannot be placed on the chip's stages, [`Warn] logs the first
    infeasible resource class and proceeds (the software model can still
    simulate what hardware could not hold), [`Off] skips the check. *)

val metrics : t -> Telemetry.Registry.t
(** The switch's registry: [switch.*] counters mirroring {!stats},
    [lb.packets] / [lb.dropped_packets], per-VIP labeled counters
    ([switch.vip.updates_completed], [switch.vip.metered_drops]), the
    [switch.tracked_flows] gauge, and every metric of the underlying
    primitives ([conn_table.*], [bloom.*], [learning.*],
    [switch_cpu.*] including the queue-delay histogram). *)

val add_vip : t -> Netcore.Endpoint.t -> Lb.Dip_pool.t -> unit
(** Register a VIP with its initial DIP pool. Raises [Invalid_argument]
    if present. *)

val has_vip : t -> Netcore.Endpoint.t -> bool

val advance : t -> now:float -> unit
(** Run the control plane up to [now]: drain due learning batches,
    complete due insertions/deletions, progress update jobs, expire idle
    entries. *)

val process : t -> now:float -> Netcore.Packet.t -> Lb.Balancer.outcome
(** Forward one packet (implies [advance]). *)

(** {2 Allocation-free fast path}

    The replay engine processes millions of packets; boxing each one
    into {!Netcore.Packet.t} and each result into an option + outcome
    record dominates the run time. The fast path takes the unpacked
    header fields and returns a bare endpoint, using the
    physically-unique {!no_dip} sentinel (compare with [==]) for drops. *)

val no_dip : Netcore.Endpoint.t
(** Alias of {!Netcore.Endpoint.none}: the drop sentinel returned by
    {!process_flow}. Test with [==], never with structural equality. *)

val process_flow :
  t ->
  now:float ->
  flags:Netcore.Tcp_flags.t ->
  payload_len:int ->
  Netcore.Five_tuple.t ->
  Netcore.Endpoint.t
(** Exactly {!process} (same counters, same control-plane side effects)
    without the packet/outcome boxing. Returns the chosen DIP or
    {!no_dip}; {!last_location} reports where the packet went. An exact
    hit allocates nothing, and keeps [now]'s bits, not its box, as the
    connection's last-seen time, so a caller's boxed packet time dies
    young; [test/test_alloc.ml] checks both. *)

val last_location : t -> Lb.Balancer.location
[@@silkroad.allow "surface.unused-export: test_alloc checks where an allocation-free exact hit went"]
(** Location taken by the most recent {!process_flow}/{!process} call. *)

val request_update : t -> now:float -> vip:Netcore.Endpoint.t -> Lb.Balancer.update -> unit
(** Request a DIP-pool update; updates to a VIP already updating are
    queued and run in order. *)

val remove_vip : t -> Netcore.Endpoint.t -> unit
(** Withdraw a VIP (serve-mode teardown): tears down its tracked
    connections (ConnTable entries, timers, version refcounts), then
    drops it from VIPTable and DIPPoolTable — subsequent packets to the
    VIP are dropped. Raises [Invalid_argument] when the VIP is unknown
    or has an active or queued update. *)

val forget_flows : t -> now:float -> (Netcore.Five_tuple.t -> Netcore.Endpoint.t -> bool) -> int
(** Drop every tracked connection [select flow vip] chooses, as an
    upstream re-route to another switch would: the ConnTable entry,
    aging timer, version refcount and any step-1 barrier membership are
    torn down; the flow will next be seen (by whichever switch ECMP now
    picks) as an unknown connection. Counted in [switch.rerouted_flows];
    returns how many flows were dropped. This is the
    {!Lb.Balancer.Reroute} disturbance's implementation. *)

val inject_cpu_backlog : t -> now:float -> work_items:int -> unit
(** Queue [work_items] units of dummy work on the switch CPU, delaying
    every insertion/deletion behind it — the chaos harness's model of a
    management-CPU stall (§4.3). The stall shows up in
    [switch_cpu.backlog_seconds] and the queue-delay histogram; no table
    is modified. *)

val set_meter :
  t -> vip:Netcore.Endpoint.t -> cir:float -> cbs:int -> eir:float -> ebs:int -> unit
(** Attach a two-rate three-color meter to the VIP (§5.2 performance
    isolation): packets marked Red are dropped in the ASIC, so a VIP
    under DDoS or flash crowd cannot crowd out the others. Replaces any
    existing meter. *)

val clear_meter : t -> vip:Netcore.Endpoint.t -> unit
[@@silkroad.allow "surface.unused-export: the meter-off half of a VIP's meter state, which the random-command invariant property drives"]

val metered_drops : t -> int
(** Packets dropped Red by VIP meters. *)

val balancer : t -> Lb.Balancer.t
(** Adapt to the common balancer interface. *)

(** {2 Introspection} *)

type stats = {
  asic_packets : int;  (** forwarded entirely in the ASIC *)
  cpu_packets : int;  (** redirected through the switch CPU *)
  dropped_packets : int;
  connections_seen : int;
  false_hits : int;  (** digest false positives observed by lookups *)
  collision_repairs : int;
  learning_drops : int;  (** learning-filter overflows *)
  table_full_drops : int;
      (** connections left stateless: ConnTable still full after the
          overflow queue exhausted its retries (or the queue was full) *)
  insert_overflows : int;
      (** inserts that found the table full and were deferred to the
          switch-CPU overflow queue for retry *)
  overflow_retries : int;  (** deferred insert attempts performed *)
  updates_completed : int;
  updates_failed : int;  (** aborted (e.g. version exhaustion) *)
  transit_clears : int;
  forced_transitions : int;  (** update barriers released by safety timeout *)
}

val stats : t -> stats
val connections : t -> int
(** ConnTable entries currently installed. *)

val conn_table : t -> Conn_table.t
val pools : t -> Dip_pool_table.t
val vip_table : t -> Vip_table.t

val jobs : t -> Update_job.t
(** The VIPs' update jobs, which own the TransitTable. *)

val memory_bits : t -> int
(** Data-plane SRAM currently provisioned: ConnTable + DIPPoolTable +
    VIPTable + TransitTable. *)

val check_invariants : t -> (unit, string list) result
(** Verify the cross-table invariants the design relies on (used by the
    test suite and the soak test):
    - every connection marked installed has an exact ConnTable entry,
      and every ConnTable entry belongs to a tracked connection;
    - every tracked connection's version is live in DIPPoolTable, and
      per-(VIP, version) refcounts equal the number of tracked
      connections using that version;
    - the pending vector the step-1 barrier is built from holds
      exactly the tracked connections neither installed nor ended,
      each at the slot it records;
    - every tracked connection that has not ended has exactly one
      aging-wheel entry, at the position it records, and every entry
      belongs to a tracked connection;
    - every connection is a live handle of the switch's slab, holding
      the tuple it is tracked under, and every ConnTable entry's handle
      names the connection tracked under its tuple;
    - every ConnTable entry's connection is marked installed;
    - every learning event, queued CPU work item and overflow entry
      names a handle that is not free, each handle's pin count equals
      those references, a destroyed handle is still pinned, and the
      free list holds exactly the free handles;
    - the VIPs' update state passes {!Update_job.check}.
    Returns the list of violated invariants. *)

(* The fast-path replay engine: stream a packed trace through one or
   more Switch instances with flat-array PCC accounting.

   Equivalence contract (pinned by test/test_replay.ml):
   - [Scalar] reproduces Driver.run's observable counters exactly: same
     packets in the same order, controls applied with the driver's tie
     order (packets at a control's timestamp fire first, because the
     driver schedules every probe before any control event).
   - [Batch] is byte-identical to [Scalar]: same single switch, same
     packet order — only the boxing differs.
   - [Sharded] partitions flows by 5-tuple hash across K independent
     switches. PCC is preserved trivially: every packet of a flow lands
     on the same switch, so each connection sees one consistent view.
     Per-shard ConnTables mean digest collisions (and Bloom-filter false
     positives) can only involve co-sharded flows — a strictly smaller
     collision class than the scalar run, which is why shard equivalence
     is stated over the collision-free counter set.

   Every packet is judged by Lb.Pcc.Flat, the flow-indexed refinement of
   the Lb.Pcc oracle that Netwide.Replay and the model checker call too;
   the flow-indexed state is shared by all shards, its counters are per
   shard.

   The engine is factored as an incremental [Stepper] (one per shard)
   so the long-running serve mode can drive the identical loop one
   control command at a time: [run] below is nothing but "apply every
   control in time order, then finish", which is why a scripted serve
   session is counter-identical to a batch replay by construction. *)

type control =
  | Update of Netcore.Endpoint.t * Lb.Balancer.update
  | Dip_dead of Netcore.Endpoint.t
  | Cpu_backlog of int
  | Attack_syn of Netcore.Five_tuple.t
  | Reroute of Lb.Balancer.reroute

type mode =
  | Scalar
  | Batch
  | Sharded of {
      shards : int;
      parallel : bool;
    }

let controls_of_chaos ~horizon events =
  List.filter_map
    (fun (ev : Chaos.Engine.event) ->
      if ev.Chaos.Engine.time >= horizon then None
      else
        match ev.Chaos.Engine.op with
        | Chaos.Engine.Deliver_update (vip, u) -> Some (ev.Chaos.Engine.time, Update (vip, u))
        | Chaos.Engine.Update_dropped _ | Chaos.Engine.Update_suppressed _ -> None
        | Chaos.Engine.Dip_died d -> Some (ev.Chaos.Engine.time, Dip_dead d)
        | Chaos.Engine.Dip_recovered _ -> None
        | Chaos.Engine.Cpu_backlog n -> Some (ev.Chaos.Engine.time, Cpu_backlog n)
        | Chaos.Engine.Syn_packet tuple -> Some (ev.Chaos.Engine.time, Attack_syn tuple)
        | Chaos.Engine.Switch_failed r
        | Chaos.Engine.Switch_recovered r
        | Chaos.Engine.Vip_migrated r -> Some (ev.Chaos.Engine.time, Reroute r))
    events

let controls_of_updates ~horizon updates =
  List.filter_map
    (fun (at, vip, u) -> if at >= horizon then None else Some (at, Update (vip, u)))
    updates

type result = {
  mode : mode;
  packets : int;
  dropped : int;
  connections : int;
  broken : int;
  violations : int;
  false_hits : int;
  repairs : int;
  first_dip : Netcore.Endpoint.t array;
  telemetry : Telemetry.Registry.t;
  elapsed : float;
}

type counts = {
  c_packets : int;
  c_dropped : int;
  c_connections : int;
  c_broken : int;
  c_violations : int;
}

(* flows are partitioned by a dedicated hash seed, independent of every
   table/ECMP seed, so sharding never correlates with placement *)
let shard_seed = 0x51a9

let shard_of ~shards tuple =
  if shards = 1 then 0
  else Netcore.Hashing.to_range (Netcore.Five_tuple.hash ~seed:shard_seed tuple) shards

(* Shard count matched to the machine: one shard per domain the runtime
   recommends, never fewer than one. On a single-core box this is 1 —
   sharding still pays (smaller per-table working sets), but extra
   domains would not. *)
let auto_shards () = Int.max 1 (Domain.recommended_domain_count ())

let counts_of (c : Lb.Pcc.Flat.counters) =
  {
    c_packets = c.Lb.Pcc.Flat.packets;
    c_dropped = c.Lb.Pcc.Flat.dropped;
    c_connections = c.Lb.Pcc.Flat.total;
    c_broken = c.Lb.Pcc.Flat.broken;
    c_violations = c.Lb.Pcc.Flat.violations;
  }

(* Worker groups, not one Domain per task: [workers] is capped at what
   the machine can actually run ([auto_shards]), each worker owns the
   stride [w, w+workers, ...] of tasks and runs them start to finish,
   and exactly [workers - 1] Domains are spawned per call. With one
   available core, workers = 1 and the parallel branch is the literal
   sequential loop — parallel can never lose to sequential by
   oversubscription. *)
let run_tasks ~parallel n task =
  let workers = if parallel && n > 1 then Int.min n (auto_shards ()) else 1 in
  let run_worker w =
    let k = ref w in
    while !k < n do
      task !k;
      k := !k + workers
    done
  in
  if workers > 1 then begin
    let doms = Array.init (workers - 1) (fun j -> Domain.spawn (fun () -> run_worker (j + 1))) in
    run_worker 0;
    Array.iter Domain.join doms
  end
  else run_worker 0

module Stepper = struct
  type shared = {
    horizon : float;
    shards : int;
    part : Packed_trace.partition;
    pcc : Lb.Pcc.Flat.t;
  }

  let make_shared ~(trace : Packed_trace.t) ~shards =
    if shards < 1 then invalid_arg "Replay.Stepper.make_shared: shards must be >= 1";
    let n_flows = Array.length trace.Packed_trace.flow_ids in
    let part = Packed_trace.partition trace ~shards ~shard_of:(shard_of ~shards) in
    {
      horizon = trace.Packed_trace.horizon;
      shards;
      part;
      pcc = Lb.Pcc.Flat.create n_flows;
    }

  let horizon sh = sh.horizon
  let first_dip sh = Lb.Pcc.Flat.first_dip sh.pcc

  type t = {
    sh : shared;
    shard : int;
    switch : Silkroad.Switch.t;
    batched : bool;
    counters : Lb.Pcc.Flat.counters;
    dips : Netcore.Endpoint.t array;
    mutable cursor : int;  (** next unprocessed packet of this shard *)
  }

  let create sh ~shard ~batched switch =
    if shard < 0 || shard >= sh.shards then invalid_arg "Replay.Stepper.create: bad shard";
    {
      sh;
      shard;
      switch;
      batched;
      counters = Lb.Pcc.Flat.counters ();
      dips = Array.make (Array.length sh.part.Packed_trace.sh_times.(shard)) Silkroad.Switch.no_dip;
      cursor = 0;
    }

  let switch st = st.switch

  let payload_len = 1024

  let process_range st lo hi =
    if hi > lo then begin
      let times = st.sh.part.Packed_trace.sh_times.(st.shard)
      and flows = st.sh.part.Packed_trace.sh_flows.(st.shard)
      and flags = st.sh.part.Packed_trace.sh_flags.(st.shard)
      and pflow = st.sh.part.Packed_trace.sh_pflow.(st.shard) in
      if st.batched then
        Silkroad.Switch.process_batch st.switch ~times ~flows ~flags ~payload_len ~dips:st.dips
          ~pos:lo ~len:(hi - lo)
      else
        for j = lo to hi - 1 do
          st.dips.(j) <-
            Silkroad.Switch.process_flow st.switch ~now:times.(j) ~flags:flags.(j) ~payload_len
              flows.(j)
        done;
      let pcc = st.sh.pcc and c = st.counters in
      for j = lo to hi - 1 do
        Lb.Pcc.Flat.judge pcc c (Array.unsafe_get pflow j) (Array.unsafe_get st.dips j)
          ~ends:(Netcore.Tcp_flags.is_connection_end (Array.unsafe_get flags j))
      done
    end

  (* process this shard's packets with time <= [at] (the driver
     schedules every probe before any control event at the same time) *)
  let flush_to st at =
    let times = st.sh.part.Packed_trace.sh_times.(st.shard) in
    let n = Array.length times in
    let j = ref st.cursor in
    while !j < n && times.(!j) <= at do
      incr j
    done;
    process_range st st.cursor !j;
    st.cursor <- !j

  (* a flow is judged by its owner shard alone, so shard-local exclusion
     is globally equivalent *)
  let exclude st dip =
    Lb.Pcc.Flat.exclude ~owner:(st.sh.part.Packed_trace.flow_shard, st.shard) st.sh.pcc dip

  let apply st ~at ctrl =
    flush_to st at;
    match ctrl with
    | Update (vip, u) ->
      (* driver order: advance, dead-server PCC accounting, update *)
      Silkroad.Switch.advance st.switch ~now:at;
      (match u with
       | Lb.Balancer.Dip_remove d -> exclude st d
       | Lb.Balancer.Dip_replace { old_dip; _ } -> exclude st old_dip
       | Lb.Balancer.Dip_add _ -> ());
      Silkroad.Switch.request_update st.switch ~now:at ~vip u
    | Dip_dead d ->
      (* ground truth only: no balancer interaction *)
      exclude st d
    | Cpu_backlog n ->
      Silkroad.Switch.advance st.switch ~now:at;
      Silkroad.Switch.inject_cpu_backlog st.switch ~now:at ~work_items:n
    | Attack_syn tuple ->
      (* routed to the flow's owner shard; fills tables and queues but
         is not measured workload: no counter, no PCC *)
      if shard_of ~shards:st.sh.shards tuple = st.shard then begin
        Silkroad.Switch.advance st.switch ~now:at;
        ignore
          (Silkroad.Switch.process_flow st.switch ~now:at ~flags:Netcore.Tcp_flags.syn
             ~payload_len:0 tuple)
      end
    | Reroute r ->
      (* topology re-route: selected flows lose their switch-side state.
         No PCC effect here — the oracle keeps judging them, which is
         exactly the network-wide consistency question. *)
      Silkroad.Switch.advance st.switch ~now:at;
      ignore
        (Silkroad.Switch.forget_flows st.switch ~now:at (fun flow _vip ->
             Lb.Balancer.reroute_selects r flow))

  let finish st ~now =
    let n = Array.length st.sh.part.Packed_trace.sh_times.(st.shard) in
    process_range st st.cursor n;
    st.cursor <- n;
    Silkroad.Switch.advance st.switch ~now

  let counts st = counts_of st.counters
end

let sum_counts l =
  List.fold_left
    (fun acc c ->
      {
        c_packets = acc.c_packets + c.c_packets;
        c_dropped = acc.c_dropped + c.c_dropped;
        c_connections = acc.c_connections + c.c_connections;
        c_broken = acc.c_broken + c.c_broken;
        c_violations = acc.c_violations + c.c_violations;
      })
    { c_packets = 0; c_dropped = 0; c_connections = 0; c_broken = 0; c_violations = 0 }
    l

let registry_of_counts c =
  let own = Telemetry.Registry.create () in
  let add name v = Telemetry.Registry.Counter.add (Telemetry.Registry.counter own name) v in
  add "replay.packets" c.c_packets;
  add "replay.dropped_packets" c.c_dropped;
  add "replay.connections" c.c_connections;
  add "replay.broken_connections" c.c_broken;
  add "replay.violation_packets" c.c_violations;
  own

let run ?(mode = Batch) ~make_switch ~(trace : Packed_trace.t) ~controls () =
  let horizon = trace.Packed_trace.horizon in
  let shards, parallel =
    match mode with
    | Scalar | Batch -> (1, false)
    | Sharded { shards; parallel } ->
      if shards < 1 then invalid_arg "Replay.run: shards must be >= 1";
      (shards, parallel)
  in
  let batched = match mode with Scalar -> false | Batch | Sharded _ -> true in
  let sh = Stepper.make_shared ~trace ~shards in
  (* controls: stable time sort keeps the driver's tie order (chaos
     events before scripted updates when the caller concatenates them in
     that order); [Stepper.apply] routes attack SYNs to their flow's
     owner shard and broadcasts every other control *)
  let controls =
    Array.of_list (List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) controls)
  in
  let steppers = Array.init shards (fun k -> Stepper.create sh ~shard:k ~batched (make_switch ())) in
  let run_shard k =
    let st = steppers.(k) in
    Array.iter (fun (at, ctrl) -> Stepper.apply st ~at ctrl) controls;
    Stepper.finish st ~now:horizon
  in
  let (), elapsed = Stopwatch.time (fun () -> run_tasks ~parallel shards run_shard) in
  let tot = sum_counts (Array.to_list (Array.map Stepper.counts steppers)) in
  let switches = Array.map Stepper.switch steppers in
  let false_hits = ref 0 in
  let repairs = ref 0 in
  Array.iter
    (fun sw ->
      let s = Silkroad.Switch.stats sw in
      false_hits := !false_hits + s.Silkroad.Switch.false_hits;
      repairs := !repairs + s.Silkroad.Switch.collision_repairs)
    switches;
  let telemetry =
    Telemetry.Registry.merge_all
      (registry_of_counts tot :: Array.to_list (Array.map Silkroad.Switch.metrics switches))
  in
  {
    mode;
    packets = tot.c_packets;
    dropped = tot.c_dropped;
    connections = tot.c_connections;
    broken = tot.c_broken;
    violations = tot.c_violations;
    false_hits = !false_hits;
    repairs = !repairs;
    first_dip = Stepper.first_dip sh;
    telemetry;
    elapsed;
  }

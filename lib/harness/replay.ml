(* The fast-path replay engine: stream a packed trace through one or
   more Switch instances with flat-array PCC accounting.

   Equivalence contract (pinned by test/test_replay.ml):
   - [Scalar] reproduces Driver.run's observable counters exactly: same
     packets in the same order, controls applied with the same tie order
     (packets at a control's timestamp fire first) and the same
     semantics ([retired_dip] and [apply_to] below, shared by every
     engine).
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
   the Lb.Pcc oracle; Netwide.Replay and the model checker judge with
   Lb.Pcc.Flat too. The flow-indexed state is shared by all shards, its
   counters — and with them its exclusion log — are per shard.

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

(* A removed, replaced or dead DIP's server is gone: its connections are
   dead on arrival, not PCC victims (§4.3). *)
let retired_dip = function
  | Update (_, (Lb.Balancer.Dip_remove d | Lb.Balancer.Dip_replace { old_dip = d; _ }))
  | Dip_dead d ->
    Some d
  | Update (_, Lb.Balancer.Dip_add _) | Cpu_backlog _ | Attack_syn _ | Reroute _ -> None

let apply_to (b : Lb.Balancer.t) ~at ctrl =
  match ctrl with
  | Update (vip, u) ->
    b.Lb.Balancer.advance ~now:at;
    b.Lb.Balancer.update ~now:at ~vip u
  | Dip_dead _ -> ()
  | Cpu_backlog n ->
    b.Lb.Balancer.advance ~now:at;
    b.Lb.Balancer.disturb ~now:at (Lb.Balancer.Cpu_backlog n)
  | Attack_syn tuple ->
    (* attack traffic fills tables and queues but is not measured
       workload: the caller neither counts nor judges it *)
    b.Lb.Balancer.advance ~now:at;
    let pkt = Netcore.Packet.make ~flags:Netcore.Tcp_flags.syn ~payload_len:0 tuple in
    ignore (b.Lb.Balancer.process ~now:at pkt)
  | Reroute r ->
    (* the selected flows lose their balancer-side state; the judge
       keeps holding them to their first DIP, which is the network-wide
       consistency question *)
    b.Lb.Balancer.advance ~now:at;
    b.Lb.Balancer.disturb ~now:at (Lb.Balancer.Reroute r)

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
  else Netcore.Five_tuple.range ~seed:shard_seed tuple shards

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
    trace : Packed_trace.t;
    idx : int array array;  (** per shard: its packets' indices in [trace], in order *)
    pcc : Lb.Pcc.Flat.t;
  }

  (* Counting-sort gather of packet indices: within a shard, packets keep
     the global (time, emission) order — exactly the subsequence a
     per-shard switch would have seen in a scalar run. The trace itself
     is read in place. *)
  let make_shared ~(trace : Packed_trace.t) ~shards =
    if shards < 1 then invalid_arg "Replay.Stepper.make_shared: shards must be >= 1";
    let n_pkts = Packed_trace.n_packets trace in
    let idx =
      if shards = 1 then [| Array.init n_pkts Fun.id |]
      else begin
        let flow_shard = Array.map (shard_of ~shards) trace.Packed_trace.flow_tuples in
        let pkt_flow = trace.Packed_trace.pkt_flow in
        let counts = Array.make shards 0 in
        Array.iter (fun fi -> counts.(flow_shard.(fi)) <- counts.(flow_shard.(fi)) + 1) pkt_flow;
        let idx = Array.map (fun c -> Array.make c 0) counts in
        let fill = Array.make shards 0 in
        Array.iteri
          (fun i fi ->
            let k = flow_shard.(fi) in
            idx.(k).(fill.(k)) <- i;
            fill.(k) <- fill.(k) + 1)
          pkt_flow;
        idx
      end
    in
    {
      horizon = trace.Packed_trace.horizon;
      shards;
      trace;
      idx;
      pcc = Lb.Pcc.Flat.create (Packed_trace.n_flows trace);
    }

  let horizon sh = sh.horizon
  let first_dip sh = Lb.Pcc.Flat.first_dip sh.pcc

  type t = {
    sh : shared;
    shard : int;
    idx : int array;  (** this shard's packet indices *)
    switch : Silkroad.Switch.t;
    balancer : Lb.Balancer.t;
    batched : bool;
    counters : Lb.Pcc.Flat.counters;
    (* flag byte -> flag set; the stepper's own, so no decoding table
       is shared between domains *)
    flags_of_byte : Netcore.Tcp_flags.t array;
    dips : Netcore.Endpoint.t array;  (** one batch's results *)
    mutable cursor : int;  (** next unprocessed packet of this shard *)
  }

  (* packets per [process_batch] call: the batch's results are judged
     before the next call, so [dips] stays this small *)
  let batch = 1024

  let create sh ~shard ~batched switch =
    if shard < 0 || shard >= sh.shards then invalid_arg "Replay.Stepper.create: bad shard";
    {
      sh;
      shard;
      idx = sh.idx.(shard);
      switch;
      balancer = Silkroad.Switch.balancer switch;
      batched;
      counters = Lb.Pcc.Flat.counters ();
      flags_of_byte = Array.init 256 Netcore.Tcp_flags.of_byte;
      dips = Array.make batch Silkroad.Switch.no_dip;
      cursor = 0;
    }

  let switch st = st.switch

  let payload_len = 1024

  let process_range st lo hi =
    let tr = st.sh.trace and idx = st.idx in
    let times = tr.Packed_trace.times
    and tuples = tr.Packed_trace.flow_tuples
    and pkt_flow = tr.Packed_trace.pkt_flow
    and pkt_flags = tr.Packed_trace.pkt_flags
    and flags_of_byte = st.flags_of_byte in
    let pcc = st.sh.pcc and c = st.counters in
    if st.batched then begin
      let pos = ref lo in
      while !pos < hi do
        let len = Int.min batch (hi - !pos) in
        Silkroad.Switch.process_batch st.switch ~times ~tuples ~pkt_flow ~pkt_flags ~flags_of_byte
          ~payload_len ~idx ~dips:st.dips ~pos:!pos ~len;
        for k = 0 to len - 1 do
          let i = idx.(!pos + k) in
          Lb.Pcc.Flat.judge pcc c pkt_flow.(i) st.dips.(k)
            ~ends:
              (Netcore.Tcp_flags.is_connection_end
                 flags_of_byte.(Char.code (Bytes.get pkt_flags i)))
        done;
        pos := !pos + len
      done
    end
    else
      for j = lo to hi - 1 do
        let i = idx.(j) in
        let flags = flags_of_byte.(Char.code (Bytes.get pkt_flags i)) in
        let dip =
          Silkroad.Switch.process_flow st.switch ~now:times.(i) ~flags ~payload_len
            tuples.(pkt_flow.(i))
        in
        Lb.Pcc.Flat.judge pcc c pkt_flow.(i) dip ~ends:(Netcore.Tcp_flags.is_connection_end flags)
      done

  (* process this shard's packets with time <= [at]: every probe stamped
     at a control's time fires before the control *)
  let flush_to st at =
    let times = st.sh.trace.Packed_trace.times and idx = st.idx in
    let n = Array.length idx in
    let j = ref st.cursor in
    while !j < n && times.(idx.(!j)) <= at do
      incr j
    done;
    process_range st st.cursor !j;
    st.cursor <- !j

  (* a flow is judged by its owner shard alone, so logging the
     retirement in this shard's counters is globally equivalent; an
     attack SYN goes to its flow's owner shard only *)
  let apply st ~at ctrl =
    flush_to st at;
    Option.iter (Lb.Pcc.Flat.exclude st.counters) (retired_dip ctrl);
    match ctrl with
    | Attack_syn tuple when shard_of ~shards:st.sh.shards tuple <> st.shard -> ()
    | _ -> apply_to st.balancer ~at ctrl

  let finish st ~now =
    let n = Array.length st.idx in
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
  (* controls: the stable time sort keeps chaos events before scripted
     updates when the caller concatenates them in that order;
     [Stepper.apply] routes attack SYNs to their flow's owner shard and
     broadcasts every other control *)
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

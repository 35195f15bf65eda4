(* The fast-path replay engine: stream a packed trace through one or
   more Switch instances with flat-array PCC accounting.

   Equivalence contract (pinned by test/test_replay.ml):
   - [Scalar] is the Stepper's per-packet path with Switch.process_flow
     as its probe. Driver.run is the same path with the balancer's
     [advance] and [process] as the probe, so the two share packet
     order, control tie order (packets at a control's timestamp fire
     first) and control semantics ([retired_dip] and [apply_to] below)
     by construction; the tests pin the two probes' counters equal.
   - [Batch] is byte-identical to [Scalar]: same single switch, same
     packet order, same per-packet step ([step] below), called directly
     instead of through the probe closure.
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
   so the long-running serve mode, the experiment driver and the model
   checker drive the identical loop: [run] below is nothing but "apply
   every control in time order, then finish", which is why a scripted
   serve session is counter-identical to a batch replay by
   construction. *)

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

(* Every trace packet carries this payload; a VIP's meter charges its
   wire size *)
let payload_len = 1024

(* flag byte -> flag set; each stepper and each netwide run builds its
   own, so no decoding table is a module-level value domains share *)
let flag_table () = Array.init 256 Netcore.Tcp_flags.of_byte

(* The per-packet step of every engine that drives a switch over a
   packed trace: packet [i] through [switch], then judged *)
let[@inline] step switch (tr : Packed_trace.t) ~flags_of_byte pcc c i =
  let fi = tr.Packed_trace.pkt_flow.(i) in
  let flags = flags_of_byte.(Char.code (Bytes.get tr.Packed_trace.pkt_flags i)) in
  let dip =
    Silkroad.Switch.process_flow switch ~now:tr.Packed_trace.times.(i) ~flags ~payload_len
      tr.Packed_trace.flow_tuples.(fi)
  in
  Lb.Pcc.Flat.judge pcc c fi dip ~ends:(Netcore.Tcp_flags.is_connection_end flags)

module Stepper = struct
  type shared = {
    shards : int;
    trace : Packed_trace.t;
    idx : int array array;
        (** per shard: its packets' indices in [trace], in order; empty for
            a single shard, whose packets are the trace's own *)
    pcc : Lb.Pcc.Flat.t;
  }

  (* The trace is read in place: each shard's packet indices, in the
     global (time, emission) order, and a single shard needs no index *)
  let make_shared ~(trace : Packed_trace.t) ~shards =
    if shards < 1 then invalid_arg "Replay.Stepper.make_shared: shards must be >= 1";
    let idx =
      if shards = 1 then [| [||] |]
      else
        Packed_trace.gather trace
          ~part:(Array.map (shard_of ~shards) trace.Packed_trace.flow_tuples)
          ~parts:shards ~lo:0 ~hi:(Packed_trace.n_packets trace)
    in
    {
      shards;
      trace;
      idx;
      pcc = Lb.Pcc.Flat.create (Packed_trace.n_flows trace);
    }

  let horizon sh = sh.trace.Packed_trace.horizon
  let first_dip sh = Lb.Pcc.Flat.first_dip sh.pcc

  (* How a stepper moves a packet: straight through its switch by
     [step], or through any balancer's probe *)
  type path =
    | Direct of Silkroad.Switch.t
    | Each of {
        probe : int -> float -> Netcore.Tcp_flags.t -> Netcore.Endpoint.t;
        on_violation : float -> unit;
      }

  type t = {
    sh : shared;
    shard : int;
    whole : bool;  (** the only shard: its [j]th packet is the trace's *)
    idx : int array;  (** otherwise, this shard's packet indices *)
    n : int;  (** this shard's packet count *)
    balancer : Lb.Balancer.t;  (** the control side: {!apply_to} and the final advance *)
    path : path;
    counters : Lb.Pcc.Flat.counters;
    flags_of_byte : Netcore.Tcp_flags.t array;  (** the stepper's own {!flag_table} *)
    mutable cursor : int;  (** next unprocessed packet of this shard *)
  }

  let make sh ~shard balancer path =
    if shard < 0 || shard >= sh.shards then invalid_arg "Replay.Stepper.create: bad shard";
    let whole = sh.shards = 1 and idx = sh.idx.(shard) in
    {
      sh;
      shard;
      whole;
      idx;
      n = (if whole then Packed_trace.n_packets sh.trace else Array.length idx);
      balancer;
      path;
      counters = Lb.Pcc.Flat.counters ();
      flags_of_byte = flag_table ();
      cursor = 0;
    }

  let of_balancer sh ~shard balancer ~probe ~on_violation =
    make sh ~shard balancer (Each { probe; on_violation })

  let create sh ~shard ~batched switch =
    let balancer = Silkroad.Switch.balancer switch in
    if batched then make sh ~shard balancer (Direct switch)
    else
      let tuples = sh.trace.Packed_trace.flow_tuples in
      of_balancer sh ~shard balancer ~on_violation:ignore ~probe:(fun fi now flags ->
          Silkroad.Switch.process_flow switch ~now ~flags ~payload_len tuples.(fi))

  (* the trace index of this shard's [j]th packet *)
  let[@inline] packet st j = if st.whole then j else st.idx.(j)

  let process_range st lo hi =
    let tr = st.sh.trace and flags_of_byte = st.flags_of_byte in
    let pcc = st.sh.pcc and c = st.counters in
    match st.path with
    | Direct switch ->
      for j = lo to hi - 1 do
        step switch tr ~flags_of_byte pcc c (packet st j)
      done
    | Each { probe; on_violation } ->
      let times = tr.Packed_trace.times
      and pkt_flow = tr.Packed_trace.pkt_flow
      and pkt_flags = tr.Packed_trace.pkt_flags in
      for j = lo to hi - 1 do
        let i = packet st j in
        let fi = pkt_flow.(i) and at = times.(i) in
        let flags = flags_of_byte.(Char.code (Bytes.get pkt_flags i)) in
        let dip = probe fi at flags in
        let violations = c.Lb.Pcc.Flat.violations in
        Lb.Pcc.Flat.judge pcc c fi dip ~ends:(Netcore.Tcp_flags.is_connection_end flags);
        if c.Lb.Pcc.Flat.violations > violations then on_violation at
      done

  (* process this shard's packets with time <= [at]: every probe stamped
     at a control's time fires before the control *)
  let flush_to st at =
    let times = st.sh.trace.Packed_trace.times in
    let j = ref st.cursor in
    while !j < st.n && times.(packet st !j) <= at do
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
    process_range st st.cursor st.n;
    st.cursor <- st.n;
    st.balancer.Lb.Balancer.advance ~now

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
  let switches = Array.init shards (fun _ -> make_switch ()) in
  let steppers = Array.mapi (fun k sw -> Stepper.create sh ~shard:k ~batched sw) switches in
  let run_shard k =
    let st = steppers.(k) in
    Array.iter (fun (at, ctrl) -> Stepper.apply st ~at ctrl) controls;
    Stepper.finish st ~now:horizon
  in
  let (), elapsed = Stopwatch.time (fun () -> run_tasks ~parallel shards run_shard) in
  let tot = sum_counts (Array.to_list (Array.map Stepper.counts steppers)) in
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

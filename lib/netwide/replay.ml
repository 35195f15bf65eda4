(* Network-wide replay: the packed trace is sliced into segments at
   control/topology-event boundaries; within a segment every flow is
   owned by exactly one switch ({!Route.owner}), so the switches can be
   driven independently (optionally on a worker group) while one global
   flow-indexed judge enforces PCC across the whole network.

   The judge is Lb.Pcc.Flat, the one Harness.Replay calls; the
   degenerate-topology differential in test/test_netwide.ml pins the two
   engines byte-identical. *)

type event =
  | Switch_down of int
  | Switch_up of int
  | Vip_move of Netcore.Endpoint.t * string

type result = {
  packets : int;
  dropped : int;
  connections : int;
  broken : int;
  violations : int;
  moved_flows : int;
  first_dip : Netcore.Endpoint.t array;
  telemetry : Telemetry.Registry.t;
  elapsed : float;
}

let payload_len = 1024

type action =
  | A_control of Harness.Replay.control
  | A_event of event

let run ?(cfg = Silkroad.Config.default) ?(parallel = false) ?(events = []) ?(controls = []) ~topo
    ~(trace : Harness.Packed_trace.t) () =
  let n_flows = Array.length trace.Harness.Packed_trace.flow_ids in
  let n_pkts = Array.length trace.Harness.Packed_trace.times in
  let times = trace.Harness.Packed_trace.times in
  let pkt_flow = trace.Harness.Packed_trace.pkt_flow in
  let pkt_flags = trace.Harness.Packed_trace.pkt_flags in
  let tuples = trace.Harness.Packed_trace.flow_tuples in
  let pcc = Lb.Pcc.Flat.create n_flows in
  let flow_vip_ep =
    Array.map
      (fun v -> trace.Harness.Packed_trace.vips.(v))
      trace.Harness.Packed_trace.flow_vip
  in
  let flag_tbl = Array.init 256 Netcore.Tcp_flags.of_byte in
  let n_nodes = Topology.n_nodes topo in
  (* node registries persist across switch failure/recovery so counters
     continue; switches themselves are the volatile state *)
  let registries : Telemetry.Registry.t option array = Array.make n_nodes None in
  let switches : Silkroad.Switch.t option array = Array.make n_nodes None in
  let cur_pools = Hashtbl.create 16 in
  List.iter (fun (v, p) -> Hashtbl.replace cur_pools v p) topo.Topology.vips;
  let own = Telemetry.Registry.create () in
  (* find-or-create keeps these out of the snapshot until the first
     topology event fires — the degenerate byte-identity depends on it *)
  let nw name = Telemetry.Registry.counter own ("netwide." ^ name) in
  let registry_of id =
    match registries.(id) with
    | Some r -> r
    | None ->
      let r = Telemetry.Registry.create () in
      registries.(id) <- Some r;
      r
  in
  let layer_hosts_vips pos =
    List.exists (fun (vip, _) -> Topology.layer_of_vip topo vip = pos) topo.Topology.vips
  in
  let ensure_switch id =
    match switches.(id) with
    | Some sw -> sw
    | None ->
      let node = topo.Topology.nodes.(id) in
      let sw = Silkroad.Switch.create ~metrics:(registry_of id) cfg in
      List.iter
        (fun (vip, _) ->
          if Topology.layer_of_vip topo vip = node.Topology.layer_pos then
            Silkroad.Switch.add_vip sw vip (Hashtbl.find cur_pools vip))
        topo.Topology.vips;
      switches.(id) <- Some sw;
      sw
  in
  (* switches exist only where VIPs terminate: transit layers are pure
     route hops with no connection state *)
  let create_initial () =
    Array.iter
      (fun (n : Topology.node) ->
        if n.Topology.up && layer_hosts_vips n.Topology.layer_pos then
          ignore (ensure_switch n.Topology.node_id))
      topo.Topology.nodes
  in
  let iter_live_switches f =
    for id = 0 to n_nodes - 1 do
      match switches.(id) with Some sw -> f sw | None -> ()
    done
  in
  let owner = Array.make n_flows (-1) in
  let recompute_owners () =
    let moved = ref 0 in
    for f = 0 to n_flows - 1 do
      let o =
        match Route.owner topo ~vip:flow_vip_ep.(f) tuples.(f) with
        | Some n -> n.Topology.node_id
        | None -> -1
      in
      if o <> owner.(f) then incr moved;
      owner.(f) <- o
    done;
    !moved
  in
  (* judge counters per node (a node's packets are judged by whoever
     drives its switch in the segment) plus one for undeliverable
     packets; summed once at the end *)
  let node_counters = Array.init n_nodes (fun _ -> Lb.Pcc.Flat.counters ()) in
  let undelivered = Lb.Pcc.Flat.counters () in
  let cursor = ref 0 in
  (* the judge's flow cells are owned by exactly one node per segment *)
  let process_node id (idxs : int array) =
    let sw = ensure_switch id and c = node_counters.(id) in
    for j = 0 to Array.length idxs - 1 do
      let i = idxs.(j) in
      let flags = flag_tbl.(Char.code (Bytes.get pkt_flags i)) in
      let dip =
        Silkroad.Switch.process_flow sw ~now:times.(i) ~flags ~payload_len tuples.(pkt_flow.(i))
      in
      Lb.Pcc.Flat.judge pcc c pkt_flow.(i) dip ~ends:(Netcore.Tcp_flags.is_connection_end flags)
    done
  in
  (* process every packet with time <= [at]: probes stamped at a
     control's time fire before it, as in every engine *)
  let flush_to at =
    let stop = ref !cursor in
    while !stop < n_pkts && times.(!stop) <= at do
      incr stop
    done;
    let lo = !cursor and hi = !stop in
    if hi > lo then begin
      let counts = Array.make n_nodes 0 in
      (* undeliverable packets (layer fully down): judged as drops *)
      for i = lo to hi - 1 do
        let o = owner.(pkt_flow.(i)) in
        if o >= 0 then counts.(o) <- counts.(o) + 1
        else
          Lb.Pcc.Flat.judge pcc undelivered pkt_flow.(i) Lb.Pcc.Flat.no_dip
            ~ends:
              (Netcore.Tcp_flags.is_connection_end
                 flag_tbl.(Char.code (Bytes.get pkt_flags i)))
      done;
      let bufs = Array.map (fun c -> Array.make c 0) counts in
      let fill = Array.make n_nodes 0 in
      for i = lo to hi - 1 do
        let o = owner.(pkt_flow.(i)) in
        if o >= 0 then begin
          bufs.(o).(fill.(o)) <- i;
          fill.(o) <- fill.(o) + 1
        end
      done;
      let active = ref [] in
      for id = n_nodes - 1 downto 0 do
        if counts.(id) > 0 then begin
          (* switch creation stays sequential: the workers below only
             drive pre-existing switches *)
          ignore (ensure_switch id);
          active := id :: !active
        end
      done;
      let active = Array.of_list !active in
      Harness.Replay.run_tasks ~parallel (Array.length active) (fun k ->
          process_node active.(k) bufs.(active.(k)))
    end;
    cursor := hi
  in
  (* the judge excludes network-wide: a flow re-homed after a failover
     is judged by another node's counters, so the retirement is logged
     in every set and all logs keep the same length. Each switch applies
     the control's balancer side, except that an update goes only to
     the switches hosting its VIP (the rest just advance) and an attack
     SYN is routed like any packet of its (spoofed) VIP *)
  let apply_control at (ctrl : Harness.Replay.control) =
    Option.iter
      (fun dip ->
        Lb.Pcc.Flat.exclude undelivered dip;
        Array.iter (fun c -> Lb.Pcc.Flat.exclude c dip) node_counters)
      (Harness.Replay.retired_dip ctrl);
    let apply sw = Harness.Replay.apply_to (Silkroad.Switch.balancer sw) ~at ctrl in
    match ctrl with
    | Harness.Replay.Update (vip, u) ->
      (match Hashtbl.find_opt cur_pools vip with
       | Some pool -> Hashtbl.replace cur_pools vip (Lb.Balancer.apply_update pool u)
       | None -> ());
      iter_live_switches (fun sw ->
          if Silkroad.Switch.has_vip sw vip then apply sw else Silkroad.Switch.advance sw ~now:at)
    | Harness.Replay.Attack_syn tuple ->
      Option.iter
        (fun n -> apply (ensure_switch n.Topology.node_id))
        (Route.owner topo ~vip:tuple.Netcore.Five_tuple.dst tuple)
    | Harness.Replay.Dip_dead _ | Harness.Replay.Cpu_backlog _ | Harness.Replay.Reroute _ ->
      iter_live_switches apply
  in
  let moved_total = ref 0 in
  let note_moved () =
    let moved = recompute_owners () in
    moved_total := !moved_total + moved;
    Telemetry.Registry.Counter.add (nw "moved_flows") moved
  in
  let apply_event at ev =
    (match ev with
     | Switch_down id ->
       Telemetry.Registry.Counter.incr (nw "switch_downs");
       Topology.set_up topo ~node_id:id false;
       (* the device lost power: its connection state is simply gone *)
       switches.(id) <- None
     | Switch_up id ->
       Telemetry.Registry.Counter.incr (nw "switch_ups");
       Topology.set_up topo ~node_id:id true;
       if layer_hosts_vips topo.Topology.nodes.(id).Topology.layer_pos then
         (* fresh switch, same registry, current pools *)
         ignore (ensure_switch id)
     | Vip_move (vip, layer_name) ->
       Telemetry.Registry.Counter.incr (nw "vip_moves");
       let old_pos = Topology.layer_of_vip topo vip in
       Topology.move_vip topo vip layer_name;
       let new_pos = Topology.find_layer topo layer_name in
       if new_pos <> old_pos then begin
         (* state does not travel: the old layer's switches forget the
            VIP's flows (the stale VIPTable registration is harmless —
            routing no longer sends the VIP there) *)
         Array.iter
           (fun (n : Topology.node) ->
             match switches.(n.Topology.node_id) with
             | Some sw ->
               ignore
                 (Silkroad.Switch.forget_flows sw ~now:at (fun _flow v ->
                      Netcore.Endpoint.equal v vip))
             | None -> ())
           topo.Topology.layer_nodes.(old_pos);
         Array.iter
           (fun (n : Topology.node) ->
             if n.Topology.up then begin
               let sw = ensure_switch n.Topology.node_id in
               if not (Silkroad.Switch.has_vip sw vip) then
                 Silkroad.Switch.add_vip sw vip (Hashtbl.find cur_pools vip)
             end)
           topo.Topology.layer_nodes.(new_pos)
       end);
    note_moved ()
  in
  let actions =
    List.stable_sort
      (fun (a, _) (b, _) -> Float.compare a b)
      (List.map (fun (t, c) -> (t, A_control c)) controls
      @ List.map (fun (t, e) -> (t, A_event e)) events)
  in
  let (), elapsed =
    Harness.Stopwatch.time (fun () ->
        create_initial ();
        ignore (recompute_owners ());
        List.iter
          (fun (at, action) ->
            flush_to at;
            match action with
            | A_control c -> apply_control at c
            | A_event e -> apply_event at e)
          actions;
        flush_to infinity;
        iter_live_switches (fun sw ->
            Silkroad.Switch.advance sw ~now:trace.Harness.Packed_trace.horizon))
  in
  let tot =
    Harness.Replay.sum_counts
      (List.map Harness.Replay.counts_of (undelivered :: Array.to_list node_counters))
  in
  let node_regs = Array.to_list registries |> List.filter_map (fun r -> r) in
  let telemetry =
    Telemetry.Registry.merge_all (Harness.Replay.registry_of_counts tot :: own :: node_regs)
  in
  {
    packets = tot.Harness.Replay.c_packets;
    dropped = tot.Harness.Replay.c_dropped;
    connections = tot.Harness.Replay.c_connections;
    broken = tot.Harness.Replay.c_broken;
    violations = tot.Harness.Replay.c_violations;
    moved_flows = !moved_total;
    first_dip = Lb.Pcc.Flat.first_dip pcc;
    telemetry;
    elapsed;
  }

type stats = {
  packets : int;
  bytes : int;
  connections_created : int;
  overload_drops : int;
}

type state = {
  seed : int;
  capacity_pps : float;
  vips : (Netcore.Endpoint.t, Lb.Dip_pool.t) Hashtbl.t;
  conns : (Netcore.Five_tuple.t, Netcore.Endpoint.t) Hashtbl.t;
  metrics : Telemetry.Registry.t;
  c_packets : Telemetry.Registry.Counter.t;  (** packets processed (fast + drops-to-None) *)
  c_bytes : Telemetry.Registry.Counter.t;
  c_conns_created : Telemetry.Registry.Counter.t;
  c_overload_drops : Telemetry.Registry.Counter.t;
  c_lb_packets : Telemetry.Registry.Counter.t;
  c_lb_dropped : Telemetry.Registry.Counter.t;
  g_conns : Telemetry.Registry.Gauge.t;
  (* token bucket over processing capacity: one token per packet *)
  mutable tokens : float;
  mutable last_refill : float;
}

let over_capacity state ~now =
  if state.capacity_pps = infinity then false
  else begin
    let dt = Float.max 0. (now -. state.last_refill) in
    state.last_refill <- now;
    (* allow up to 10 ms of burst *)
    state.tokens <-
      Float.min (state.capacity_pps /. 100.) (state.tokens +. (dt *. state.capacity_pps));
    if state.tokens >= 1. then begin
      state.tokens <- state.tokens -. 1.;
      false
    end
    else true
  end

let process state ~now (pkt : Netcore.Packet.t) =
  if over_capacity state ~now then begin
    Telemetry.Registry.Counter.incr state.c_overload_drops;
    Telemetry.Registry.Counter.incr state.c_lb_dropped;
    { Lb.Balancer.dip = None; location = Lb.Balancer.Slb }
  end
  else begin
  Telemetry.Registry.Counter.incr state.c_packets;
  Telemetry.Registry.Counter.add state.c_bytes (Netcore.Packet.wire_size pkt);
  let flow = pkt.Netcore.Packet.flow in
  let finish dip =
    (match dip with
     | Some _ -> Telemetry.Registry.Counter.incr state.c_lb_packets
     | None -> Telemetry.Registry.Counter.incr state.c_lb_dropped);
    Telemetry.Registry.Gauge.set state.g_conns (float_of_int (Hashtbl.length state.conns));
    { Lb.Balancer.dip; location = Lb.Balancer.Slb }
  in
  match Hashtbl.find_opt state.conns flow with
  | Some dip ->
    if Netcore.Tcp_flags.is_connection_end pkt.Netcore.Packet.flags then
      Hashtbl.remove state.conns flow;
    finish (Some dip)
  | None ->
    (match Hashtbl.find_opt state.vips flow.Netcore.Five_tuple.dst with
     | None -> finish None
     | Some pool ->
       if Lb.Dip_pool.is_empty pool then finish None
       else begin
         let dip = Lb.Dip_pool.select_flow ~seed:state.seed pool flow in
         (* Software insertion is atomic with VIPTable updates, so the
            entry is visible to the very next packet. *)
         if not (Netcore.Tcp_flags.is_connection_end pkt.Netcore.Packet.flags) then begin
           Hashtbl.replace state.conns flow dip;
           Telemetry.Registry.Counter.incr state.c_conns_created
         end;
         finish (Some dip)
       end)
  end

let update state ~now:_ ~vip u =
  let pool =
    match Hashtbl.find_opt state.vips vip with
    | Some pool -> pool
    | None -> Lb.Dip_pool.of_list []
  in
  Hashtbl.replace state.vips vip (Lb.Balancer.apply_update pool u)

let create ~seed ?(capacity_pps = infinity) ?(vips = []) () =
  let reg = Telemetry.Registry.create () in
  let state =
    {
      seed;
      capacity_pps;
      vips = Hashtbl.create 16;
      conns = Hashtbl.create 4096;
      metrics = reg;
      c_packets = Telemetry.Registry.counter reg "slb.packets";
      c_bytes = Telemetry.Registry.counter reg "slb.bytes";
      c_conns_created = Telemetry.Registry.counter reg "slb.connections_created";
      c_overload_drops = Telemetry.Registry.counter reg "slb.overload_drops";
      c_lb_packets = Telemetry.Registry.counter reg "lb.packets";
      c_lb_dropped = Telemetry.Registry.counter reg "lb.dropped_packets";
      g_conns = Telemetry.Registry.gauge reg "slb.connections";
      tokens = (if capacity_pps = infinity then 0. else capacity_pps /. 100.);
      last_refill = 0.;
    }
  in
  List.iter (fun (vip, pool) -> Hashtbl.replace state.vips vip pool) vips;
  let balancer =
    {
      Lb.Balancer.name = "slb";
      advance = (fun ~now:_ -> ());
      process = process state;
      update = update state;
      connections = (fun () -> Hashtbl.length state.conns);
      metrics = (fun () -> state.metrics);
      disturb =
        (fun ~now:_ d ->
          match d with
          | Lb.Balancer.Cpu_backlog n ->
            (* the x86 packet path and control work share the cores: a
               stall steals that many packets' worth of tokens, which
               surfaces as overload drops when capacity is finite *)
            if state.capacity_pps < infinity then
              state.tokens <- state.tokens -. float_of_int n
          | Lb.Balancer.Reroute r ->
            (* an SLB instance died or the flows were re-steered: the
               per-connection table the survivors hold never saw these
               flows, so their state is simply gone *)
            let doomed =
              Hashtbl.fold
                (fun flow _dip acc ->
                  if Lb.Balancer.reroute_selects r flow then flow :: acc else acc)
                state.conns []
            in
            List.iter (Hashtbl.remove state.conns) doomed);
    }
  in
  let stats () =
    let v = Telemetry.Registry.Counter.value in
    {
      packets = v state.c_packets;
      bytes = v state.c_bytes;
      connections_created = v state.c_conns_created;
      overload_drops = v state.c_overload_drops;
    }
  in
  (balancer, stats)

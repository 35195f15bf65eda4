(* The SLB side is a minimal in-process software balancer (ConnTable +
   VIPTable in hashtables, atomic updates) — deliberately local so the
   silkroad library does not depend on the baselines library. *)

module Ftbl = Netcore.Five_tuple.Tbl

type soft_lb = {
  soft_seed : int;
  soft_vips : (Netcore.Endpoint.t, Lb.Dip_pool.t) Hashtbl.t;
  soft_conns : Netcore.Endpoint.t Ftbl.t;
}

let soft_process slb (pkt : Netcore.Packet.t) =
  let flow = pkt.Netcore.Packet.flow in
  let finish dip = { Lb.Balancer.dip; location = Lb.Balancer.Slb } in
  match Ftbl.find_opt slb.soft_conns flow with
  | Some dip ->
    if Netcore.Tcp_flags.is_connection_end pkt.Netcore.Packet.flags then
      Ftbl.remove slb.soft_conns flow;
    finish (Some dip)
  | None ->
    (match Hashtbl.find_opt slb.soft_vips flow.Netcore.Five_tuple.dst with
     | None -> finish None
     | Some pool ->
       if Lb.Dip_pool.is_empty pool then finish None
       else begin
         let dip = Lb.Dip_pool.select_flow ~seed:slb.soft_seed pool flow in
         if not (Netcore.Tcp_flags.is_connection_end pkt.Netcore.Packet.flags) then
           Ftbl.replace slb.soft_conns flow dip;
         finish (Some dip)
       end)

type t = {
  sw : Switch.t;
  slb : soft_lb;
  overflow_threshold : float;
  (* connections spilled to the SLB by the overflow rule: they must stay
     there for life even if occupancy later drops *)
  spilled : unit Ftbl.t;
  metrics : Telemetry.Registry.t;
  c_spilled : Telemetry.Registry.Counter.t;
  (* soft-path packets bypass the switch, so the hybrid bumps the shared
     lb.* counters itself to keep the uniform pair accurate *)
  c_lb_packets : Telemetry.Registry.Counter.t;
  c_lb_dropped : Telemetry.Registry.Counter.t;
  g_slb_conns : Telemetry.Registry.Gauge.t;
}

let create ?(cfg = Config.default) ?(overflow_threshold = 0.95) ~seed ~vips () =
  let reg = Telemetry.Registry.create () in
  let sw = Switch.create ~metrics:reg cfg in
  let slb =
    { soft_seed = seed; soft_vips = Hashtbl.create 16; soft_conns = Ftbl.create 1024 }
  in
  List.iter
    (fun (v, pool) ->
      Hashtbl.replace slb.soft_vips v pool;
      Switch.add_vip sw v pool)
    vips;
  {
    sw;
    slb;
    overflow_threshold;
    spilled = Ftbl.create 1024;
    metrics = reg;
    c_spilled = Telemetry.Registry.counter reg "hybrid.spilled";
    c_lb_packets = Telemetry.Registry.counter reg "lb.packets";
    c_lb_dropped = Telemetry.Registry.counter reg "lb.dropped_packets";
    g_slb_conns = Telemetry.Registry.gauge reg "hybrid.slb_connections";
  }

let soft_forward t pkt =
  let outcome = soft_process t.slb pkt in
  (match outcome.Lb.Balancer.dip with
   | Some _ -> Telemetry.Registry.Counter.incr t.c_lb_packets
   | None -> Telemetry.Registry.Counter.incr t.c_lb_dropped);
  Telemetry.Registry.Gauge.set t.g_slb_conns
    (float_of_int (Ftbl.length t.slb.soft_conns));
  outcome

let process t ~now pkt =
  let flow = pkt.Netcore.Packet.flow in
  if Ftbl.mem t.spilled flow then begin
    if Netcore.Tcp_flags.is_connection_end pkt.Netcore.Packet.flags then Ftbl.remove t.spilled flow;
    soft_forward t pkt
  end
  else if
    (* overflow rule: a connection UNKNOWN to the switch arriving while
       ConnTable runs hot spills to the SLB *)
    Netcore.Tcp_flags.is_connection_start pkt.Netcore.Packet.flags
    && Conn_table.occupancy (Switch.conn_table t.sw) >= t.overflow_threshold
  then begin
    Ftbl.replace t.spilled flow ();
    Telemetry.Registry.Counter.incr t.c_spilled;
    soft_forward t pkt
  end
  else Switch.process t.sw ~now pkt

let update t ~now ~vip u =
  (* both components see every update; the SLB applies it atomically *)
  (match Hashtbl.find_opt t.slb.soft_vips vip with
   | Some pool -> Hashtbl.replace t.slb.soft_vips vip (Lb.Balancer.apply_update pool u)
   | None -> ());
  if Switch.has_vip t.sw vip then Switch.request_update t.sw ~now ~vip u

let balancer t =
  {
    Lb.Balancer.name = "silkroad-hybrid";
    advance = (fun ~now -> Switch.advance t.sw ~now);
    process = (fun ~now pkt -> process t ~now pkt);
    update = (fun ~now ~vip u -> update t ~now ~vip u);
    connections = (fun () -> Switch.connections t.sw + Ftbl.length t.slb.soft_conns);
    metrics = (fun () -> t.metrics);
    disturb =
      (fun ~now d ->
        match d with
        | Lb.Balancer.Cpu_backlog n -> Switch.inject_cpu_backlog t.sw ~now ~work_items:n
        | Lb.Balancer.Reroute r ->
          (* both tiers lose the re-routed flows: the hardware table and
             the software fallback live on the same failed device *)
          let selects flow = Lb.Balancer.reroute_selects r flow in
          ignore (Switch.forget_flows t.sw ~now (fun flow _vip -> selects flow));
          let drop tbl =
            let doomed =
              Ftbl.fold (fun flow _ acc -> if selects flow then flow :: acc else acc) tbl []
            in
            List.iter (Ftbl.remove tbl) doomed
          in
          drop t.slb.soft_conns;
          drop t.spilled);
  }

let spilled_connections t = Telemetry.Registry.Counter.value t.c_spilled

type state = {
  seed : int;
  vips : (Netcore.Endpoint.t, Lb.Dip_pool.t) Hashtbl.t;
  metrics : Telemetry.Registry.t;
  c_packets : Telemetry.Registry.Counter.t;
  c_dropped : Telemetry.Registry.Counter.t;
}

let drop state =
  Telemetry.Registry.Counter.incr state.c_dropped;
  { Lb.Balancer.dip = None; location = Lb.Balancer.Asic }

let process state ~now:_ (pkt : Netcore.Packet.t) =
  let vip = pkt.Netcore.Packet.flow.Netcore.Five_tuple.dst in
  match Hashtbl.find_opt state.vips vip with
  | None -> drop state
  | Some pool ->
    if Lb.Dip_pool.is_empty pool then drop state
    else begin
      let dip = Lb.Dip_pool.select_flow ~seed:state.seed pool pkt.Netcore.Packet.flow in
      Telemetry.Registry.Counter.incr state.c_packets;
      { Lb.Balancer.dip = Some dip; location = Lb.Balancer.Asic }
    end

let update state ~now:_ ~vip u =
  let pool =
    match Hashtbl.find_opt state.vips vip with
    | Some pool -> pool
    | None -> Lb.Dip_pool.of_list []
  in
  Hashtbl.replace state.vips vip (Lb.Balancer.apply_update pool u)

let create_with ~seed vips =
  let reg = Telemetry.Registry.create () in
  let state =
    {
      seed;
      vips = Hashtbl.create 16;
      metrics = reg;
      c_packets = Telemetry.Registry.counter reg "lb.packets";
      c_dropped = Telemetry.Registry.counter reg "lb.dropped_packets";
    }
  in
  List.iter (fun (vip, pool) -> Hashtbl.replace state.vips vip pool) vips;
  {
    Lb.Balancer.name = "ecmp";
    advance = (fun ~now:_ -> ());
    process = process state;
    update = update state;
    connections = (fun () -> 0);
    metrics = (fun () -> state.metrics);
    (* stateless: no slow path to stall *)
    disturb = (fun ~now:_ _ -> ());
  }

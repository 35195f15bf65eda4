type t = {
  seed : int;
  switches : Switch.t array;
  up : bool array;
  (* resilient ECMP over member indices: a member failure only remaps
     the flows that were pinned to it *)
  mutable routing : int Asic.Ecmp.resilient;
}

let create ?(cfg = Config.default) ~seed ~switches ~vips () =
  if switches < 2 then invalid_arg "Switch_group.create: need at least 2 switches";
  (* every member uses the same configuration — and thus the same hash
     functions, so identical VIPTables map flows identically (§7) *)
  let mk _ =
    let sw = Switch.create cfg in
    List.iter (fun (v, p) -> Switch.add_vip sw v p) vips;
    sw
  in
  {
    seed;
    switches = Array.init switches mk;
    up = Array.make switches true;
    routing = Asic.Ecmp.resilient ~slots_per_member:128 (Array.init switches (fun i -> i));
  }

let members t = t.switches

let alive t = Array.fold_left (fun acc u -> if u then acc + 1 else acc) 0 t.up

let route t flow =
  Asic.Ecmp.resilient_slot t.routing
    (Netcore.Five_tuple.range ~seed:t.seed flow (Asic.Ecmp.resilient_slots t.routing))

let fail t i =
  if not t.up.(i) then ()
  else if alive t <= 1 then invalid_arg "Switch_group.fail: cannot kill the last switch"
  else begin
    t.up.(i) <- false;
    t.routing <- Asic.Ecmp.resilient_remove ~equal:Int.equal t.routing i
  end

let balancer t =
  {
    Lb.Balancer.name = Printf.sprintf "silkroad-group-%d" (Array.length t.switches);
    advance =
      (fun ~now ->
        Array.iteri (fun i sw -> if t.up.(i) then Switch.advance sw ~now) t.switches);
    process =
      (fun ~now pkt ->
        let i = route t pkt.Netcore.Packet.flow in
        Switch.process t.switches.(i) ~now pkt);
    update =
      (fun ~now ~vip u ->
        (* every switch sees every update, so latest VIPTables agree *)
        Array.iteri
          (fun i sw -> if t.up.(i) then Switch.request_update sw ~now ~vip u)
          t.switches);
    connections =
      (fun () ->
        Array.to_list t.switches
        |> List.mapi (fun i sw -> if t.up.(i) then Switch.connections sw else 0)
        |> List.fold_left ( + ) 0);
    metrics =
      (fun () ->
        (* group view = member registries merged: counters sum,
           histograms (same spec) merge bucket-wise *)
        let reg = Telemetry.Registry.create () in
        Array.iter
          (fun sw -> Telemetry.Registry.merge_into ~into:reg (Switch.metrics sw))
          t.switches;
        reg);
    disturb =
      (fun ~now d ->
        match d with
        | Lb.Balancer.Cpu_backlog n ->
          (* every live member has its own management CPU *)
          Array.iteri
            (fun i sw -> if t.up.(i) then Switch.inject_cpu_backlog sw ~now ~work_items:n)
            t.switches
        | Lb.Balancer.Reroute r ->
          (* re-routed flows leave whichever member knew them *)
          Array.iteri
            (fun i sw ->
              if t.up.(i) then
                ignore
                  (Switch.forget_flows sw ~now (fun flow _vip ->
                       Lb.Balancer.reroute_selects r flow)))
            t.switches);
  }

(* A PoP cluster at datacenter scale (scaled down to run on a laptop):
   many VIPs of user-facing traffic on one ToR SilkRoad, production-like
   DIP churn, plus the capacity questions an operator would ask —
   how much SRAM, how many SLBs replaced, does PCC hold.

   Run with: dune exec examples/pop_cluster.exe *)

let n_vips = 16
let dips_per_vip = 16

let () =
  let vips =
    List.init n_vips (fun i ->
        ( Netcore.Endpoint.v4 20 0 1 (i + 1) 80,
          Lb.Dip_pool.of_list
            (List.init dips_per_vip (fun j ->
                 Netcore.Endpoint.v4 10 (1 + i) 0 (j + 1) 8080)) ))
  in
  let sw = Silkroad.Switch.create (Silkroad.Config.sized_for ~connections:200_000) in
  List.iter (fun (v, p) -> Silkroad.Switch.add_vip sw v p) vips;

  (* short user-facing flows, Poisson arrivals per VIP *)
  let root = Simnet.Prng.create ~seed:99 in
  let flows =
    List.concat
      (List.mapi
         (fun i (v, _) ->
           let rng = Simnet.Prng.split root in
           let p =
             Simnet.Workload.profile
               ~duration:(Simnet.Dist.lognormal_of_quantiles ~median:8. ~p99:90.)
               ~vip:v ~new_conns_per_sec:25. ()
           in
           Simnet.Workload.take_until ~horizon:300.
             (Simnet.Workload.arrivals ~rng ~id_base:(i * 1_000_000) p))
         vips)
  in
  (* production-like churn: ~20 updates/min across the cluster *)
  let updates =
    List.concat
      (List.mapi
         (fun i (v, _) ->
           let rng = Simnet.Prng.split root in
           let events =
             Simnet.Update_trace.generate ~rng ~updates_per_min:1.2 ~horizon:300.
               ~pool_size:dips_per_vip
           in
           List.map
             (fun (e : Simnet.Update_trace.event) ->
               let d = Netcore.Endpoint.v4 10 (1 + i) 0 (e.Simnet.Update_trace.dip + 1) 8080 in
               ( e.Simnet.Update_trace.time,
                 v,
                 match e.Simnet.Update_trace.kind with
                 | Simnet.Update_trace.Remove -> Lb.Balancer.Dip_remove d
                 | Simnet.Update_trace.Add -> Lb.Balancer.Dip_add d ))
             events)
         vips)
  in
  Format.printf "PoP cluster: %d VIPs x %d DIPs, %d connections, %d updates over 5 min@."
    n_vips dips_per_vip (List.length flows) (List.length updates);
  let r =
    Harness.Driver.run ~balancer:(Silkroad.Switch.balancer sw)
      ~trace:(Harness.Packed_trace.compile ~horizon:360. flows)
      ~updates ()
  in
  Format.printf "  broken connections: %d / %d@." r.Harness.Driver.broken_connections
    r.Harness.Driver.connections;
  let s = Silkroad.Switch.stats sw in
  Format.printf "  updates completed %d (failed %d), digest false hits %d, repairs %d@."
    s.Silkroad.Switch.updates_completed s.Silkroad.Switch.updates_failed
    s.Silkroad.Switch.false_hits s.Silkroad.Switch.collision_repairs;
  Format.printf "  ConnTable peak occupancy %.1f%%, SRAM %.2f MB@."
    (100. *. Silkroad.Conn_table.occupancy (Silkroad.Switch.conn_table sw))
    (Asic.Sram.mib_of_bits (Silkroad.Switch.memory_bits sw));

  (* capacity math for the real cluster this models (scaled up) *)
  let demand =
    Silkroad.Cost_model.demand_of_traffic ~gbps:800. ~avg_packet_bytes:600
      ~connections:8_000_000
  in
  Format.printf "  at production scale (800 Gbps, 8M conns): %d SLBs vs %d SilkRoad (%.0fx)@."
    (Silkroad.Cost_model.slb_count demand)
    (Silkroad.Cost_model.silkroad_count demand)
    (Silkroad.Cost_model.replacement_ratio demand)

(* Rolling service upgrade — §3.1's dominant update pattern (82.7 % of
   all DIP changes): the operator reboots the service's DIPs two at a
   time, every few minutes, while client traffic keeps flowing.

   We run the same upgrade against three balancers and compare broken
   connections and where traffic was processed:
   - stateless ECMP (no connection state anywhere),
   - Duet (VIPTable in the switch, ConnTable in SLBs, 1-min migration),
   - SilkRoad.

   Run with: dune exec examples/rolling_upgrade.exe *)

let vip = Netcore.Endpoint.v4 20 0 0 1 443
let n_dips = 12
let dips = List.init n_dips (fun i -> Netcore.Endpoint.v4 10 0 1 (i + 1) 8443)
let pool () = Lb.Dip_pool.of_list dips

let scenario () =
  let rng = Simnet.Prng.create ~seed:1234 in
  let profile =
    Simnet.Workload.profile ~duration:Simnet.Workload.hadoop_durations ~vip
      ~new_conns_per_sec:120. ()
  in
  let flows =
    Simnet.Workload.take_until ~horizon:900. (Simnet.Workload.arrivals ~rng ~id_base:0 profile)
  in
  (* reboot 2 DIPs every 120 s: six batches upgrade the whole pool *)
  let reboot =
    Simnet.Update_trace.rolling_reboot ~batch:2 ~period:120. ~rng ~start:30. ~pool_size:n_dips ()
  in
  let updates =
    List.map
      (fun (e : Simnet.Update_trace.event) ->
        let d = List.nth dips e.Simnet.Update_trace.dip in
        ( e.Simnet.Update_trace.time,
          vip,
          match e.Simnet.Update_trace.kind with
          | Simnet.Update_trace.Remove -> Lb.Balancer.Dip_remove d
          | Simnet.Update_trace.Add -> Lb.Balancer.Dip_add d ))
      reboot
  in
  (flows, updates)

let () =
  let flows, updates = scenario () in
  Format.printf "rolling upgrade of %d DIPs, %d updates, %d connections over 15 min@."
    n_dips (List.length updates) (List.length flows);
  let trace = Harness.Packed_trace.compile ~horizon:960. flows in
  let run name balancer =
    let r = Harness.Driver.run ~balancer ~trace ~updates () in
    Format.printf "  %-12s broken %5d / %d (%s)   traffic: asic %s, slb %s@." name
      r.Harness.Driver.broken_connections r.Harness.Driver.connections
      (Printf.sprintf "%.3f%%" (100. *. r.Harness.Driver.broken_fraction))
      (Printf.sprintf "%.1f%%"
         (100. *. r.Harness.Driver.asic_bytes
          /. (r.Harness.Driver.asic_bytes +. r.Harness.Driver.slb_bytes +. r.Harness.Driver.cpu_bytes +. 1e-9)))
      (Printf.sprintf "%.1f%%"
         (100. *. r.Harness.Driver.slb_bytes
          /. (r.Harness.Driver.asic_bytes +. r.Harness.Driver.slb_bytes +. r.Harness.Driver.cpu_bytes +. 1e-9)))
  in
  run "ecmp" (Baselines.Ecmp_lb.create_with ~seed:9 [ (vip, pool ()) ]);
  let duet, _ =
    Baselines.Duet.create ~seed:9 ~policy:(Baselines.Duet.Migrate_every 60.)
      ~vips:[ (vip, pool ()) ] ()
  in
  run "duet-1min" duet;
  let sw = Silkroad.Switch.create Silkroad.Config.default in
  Silkroad.Switch.add_vip sw vip (pool ());
  run "silkroad" (Silkroad.Switch.balancer sw);
  let s = Silkroad.Switch.stats sw in
  Format.printf
    "silkroad control plane: %d updates, %d version reuses, transit filter cleared %d times@."
    s.Silkroad.Switch.updates_completed
    (Silkroad.Dip_pool_table.reuses (Silkroad.Switch.pools sw))
    s.Silkroad.Switch.transit_clears

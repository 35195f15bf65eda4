(* Experiments for the §5.2 / §7 mechanisms beyond the numbered figures:
   performance isolation via per-VIP meters, the SilkRoad+SLB hybrid,
   and switch-failure behaviour. *)

(* §2.2/§5.2: a DDoS on one VIP. On a shared SLB instance the victim VIP
   collapses with the attacked one; SilkRoad's per-VIP meter confines
   the damage to the attacked VIP. *)
let isolation ~quick ppf =
  let horizon = if quick then 30. else 120. in
  let attacked = Common.vip 0 and victim = Common.vip 1 in
  let vips = Common.vips_of ~n_vips:2 ~dips_per_vip:4 in
  let mk_flows ~seed rate vip =
    let rng = Simnet.Prng.create ~seed in
    Simnet.Workload.take_until ~horizon
      (Simnet.Workload.arrivals ~rng ~id_base:(seed * 1_000_000)
         (Simnet.Workload.profile ~vip ~new_conns_per_sec:rate ()))
  in
  let attack = mk_flows ~seed:1 400. attacked in
  let normal = mk_flows ~seed:2 20. victim in
  let victim_ids = List.map (fun f -> f.Simnet.Flow.id) normal in
  let trace = Harness.Packed_trace.compile ~horizon:(horizon +. 10.) (attack @ normal) in
  let run balancer =
    ignore (Harness.Driver.run ~balancer ~trace ~updates:[] () : Harness.Driver.result);
    balancer
  in
  (* measure per-VIP delivery by probing the victim's flows afterward *)
  let victim_delivery balancer =
    let ok = ref 0 in
    List.iter
      (fun f ->
        let pkt = Netcore.Packet.data f.Simnet.Flow.tuple in
        if (balancer.Lb.Balancer.process ~now:(horizon +. 20.) pkt).Lb.Balancer.dip <> None
        then incr ok)
      normal;
    float_of_int !ok /. float_of_int (List.length victim_ids)
  in
  Common.header ppf "Performance isolation under a DDoS on one VIP (§2.2, §5.2)";
  Common.row ppf [ "balancer"; "victim delivery" ];
  Common.rule ppf;
  (* shared SLB sized for the normal load (not the attack) *)
  let slb, _ = Baselines.Slb.create ~seed:5 ~capacity_pps:200. ~vips () in
  let slb = run slb in
  Common.row ppf [ "shared SLB (200 pps)"; Common.pct (victim_delivery slb) ];
  (* silkroad with a meter throttling the attacked VIP *)
  let sw, balancer = Common.silkroad ~vips () in
  Silkroad.Switch.set_meter sw ~vip:attacked ~cir:100_000. ~cbs:10_000 ~eir:100_000.
    ~ebs:10_000;
  let b = run balancer in
  Common.row ppf [ "SilkRoad + VIP meter"; Common.pct (victim_delivery b) ];
  Format.fprintf ppf "  metered drops on the attacked VIP: %d@." (Silkroad.Switch.metered_drops sw);
  Format.fprintf ppf
    "  paper claim: x86 SLBs have poor performance isolation; SilkRoad throttles@.";
  Format.fprintf ppf "  the offending VIP in hardware and other VIPs are unaffected.@."

(* §7: switch failure. The fabric is one layer of three ToRs that all
   host the VIP and see every update, so their latest VIPTables agree;
   rendezvous ECMP spreads the flows over them. When ToR 0 fails, its
   flows re-home to the survivors, which never learned them: those on
   the latest version map identically (same VIPTable, same hash), those
   pinned to an old version re-hash under the new pool and break — like
   an SLB failure. *)
let switch_failure ~quick ppf =
  let n = if quick then 2_000 else 10_000 in
  let vips = Common.vips_of ~n_vips:1 ~dips_per_vip:8 in
  let vip = Common.vip 0 in
  Common.header ppf "Switch failure in a redundant group (§7)";
  Common.row ppf [ "scenario"; "conns"; "broken"; "fraction" ];
  Common.rule ppf;
  let horizon = 4. in
  (* a SYN at 0 and one data probe at 3, after the failure at 2 *)
  let trace =
    Harness.Packed_trace.compile ~early_offsets:[ 3. ] ~probe_interval:horizon ~horizon
      (List.init n (fun i ->
           {
             Simnet.Flow.id = i;
             tuple =
               Netcore.Five_tuple.make
                 ~src:
                   (Netcore.Endpoint.v4 3 ((i / 62500) + 1) ((i / 250) mod 250)
                      (1 + (i mod 250)) 7777)
                 ~dst:vip ~proto:Netcore.Protocol.Tcp;
             start = 0.;
             duration = horizon;
             bytes_per_sec = 1000.;
           }))
  in
  (* 50 MB of LB SRAM per ToR: every ToR can host the VIP *)
  let tors =
    [ { Silkroad.Assignment.layer_name = "tor"; switches = 3;
        sram_budget_bits = 50 * 8 * 1024 * 1024; capacity_gbps = 10_000. } ]
  in
  let run_case ~with_update name =
    let topo = Netwide.Topology.build ~seed:6 ~layers:tors ~vips () in
    let controls =
      if with_update then
        [ (1., Harness.Replay.Update (vip, Lb.Balancer.Dip_add (Common.dip 100))) ]
      else []
    in
    let events = [ (2., Netwide.Replay.Switch_down 0) ] in
    let r = Netwide.Replay.run ~topo ~trace ~controls ~events () in
    let conns = r.Netwide.Replay.connections and broken = r.Netwide.Replay.broken in
    Common.row ppf
      [ name; string_of_int conns; string_of_int broken;
        Common.pct (float_of_int broken /. float_of_int conns) ]
  in
  run_case ~with_update:false "no update before failure";
  run_case ~with_update:true "update pinned old versions";
  Format.fprintf ppf
    "  paper claim: latest-version connections keep PCC across a switch@.";
  Format.fprintf ppf
    "  failure; only old-version connections on the dead switch break.@."

(* §7: ConnTable as a cache — overflow spills to a small SLB with no
   PCC loss. *)
let hybrid ~quick ppf =
  let rate = if quick then 150. else 400. in
  let horizon = if quick then 120. else 300. in
  let cfg =
    { Silkroad.Config.default with
      Silkroad.Config.conn_table_rows = 512;
      conn_table_stages = 2;
      conn_table_ways = 4 }
  in
  let vips = Common.vips_of ~n_vips:1 ~dips_per_vip:8 in
  let scenario =
    Common.scenario ~seed:27 ~n_vips:1 ~dips_per_vip:8
      ~duration:(Simnet.Dist.lognormal_of_quantiles ~median:60. ~p99:600.)
      ~conns_per_sec_per_vip:rate ~updates_per_min:6. ~trace_seconds:horizon ()
  in
  Common.header ppf "SilkRoad+SLB hybrid: ConnTable as a cache (§7)";
  let h = Silkroad.Hybrid.create ~cfg ~overflow_threshold:0.9 ~seed:7 ~vips () in
  let r = Common.run (Silkroad.Hybrid.balancer h) scenario in
  Common.row ppf [ "connections"; string_of_int r.Harness.Driver.connections ];
  Common.row ppf [ "broken"; string_of_int r.Harness.Driver.broken_connections ];
  Common.row ppf
    [ "ConnTable capacity"; string_of_int (Silkroad.Config.conn_capacity cfg) ];
  Common.row ppf [ "spilled to SLB"; string_of_int (Silkroad.Hybrid.spilled_connections h) ];
  Common.row ppf [ "slb traffic"; Common.pct r.Harness.Driver.slb_traffic_fraction ];
  Format.fprintf ppf
    "  overflowing the 4K-entry ConnTable costs SLB traffic, never PCC.@."

(* §2.2/§5.2 latency: the balancer-added latency distribution per
   system. SilkRoad forwards everything in the ASIC pipeline; an SLB
   adds 50 us - 1 ms of batched software processing to every packet;
   Duet sits in between, paying the SLB price while VIPs are redirected
   (the paper reports a 474 us median for Duet under churn). *)
let latency ~quick ppf =
  let n_vips = 8 in
  let conns = if quick then 8. else 20. in
  let trace = if quick then 600. else 1200. in
  let s =
    Common.scenario ~seed:31 ~n_vips ~dips_per_vip:8
      ~duration:Simnet.Workload.hadoop_durations ~conns_per_sec_per_vip:conns
      ~updates_per_min:10. ~trace_seconds:trace ()
  in
  let vips () = Common.vips_of ~n_vips ~dips_per_vip:8 in
  Common.header ppf "Added latency per balancer (10 upd/min churn)";
  Common.row ppf [ "balancer"; "median"; "p99" ];
  Common.rule ppf;
  let show name r =
    Common.row ppf
      [ name;
        Printf.sprintf "%.1f us" (1e6 *. r.Harness.Driver.latency_median);
        Printf.sprintf "%.1f us" (1e6 *. r.Harness.Driver.latency_p99) ]
  in
  let slb, _ = Baselines.Slb.create ~seed:8 ~vips:(vips ()) () in
  show "SLB" (Common.run slb s);
  let duet, _ =
    Baselines.Duet.create ~seed:8 ~policy:(Baselines.Duet.Migrate_every 600.) ~vips:(vips ()) ()
  in
  show "Duet (10min)" (Common.run duet s);
  let _, silkroad = Common.silkroad ~vips:(vips ()) () in
  show "SilkRoad" (Common.run silkroad s);
  Format.fprintf ppf
    "  paper anchors: SLBs add 50us-1ms; Duet medians ~474us under churn;@.";
  Format.fprintf ppf "  SilkRoad stays sub-microsecond (all packets in the pipeline).@."

(* Scalability: actually instantiate a large ConnTable and fill it to
   its design occupancy — the model-scale analogue of "we have also
   evaluated that up to 10M connections can fit in the on-chip SRAM in
   our SilkRoad prototype" (§5.2). The output is deterministic: the
   host's insert rate is perfbench's [conn_table.insert_ns], not a row
   here. *)
let scale ~quick ppf =
  let target = if quick then 250_000 else 1_000_000 in
  let cfg = Silkroad.Config.sized_for ~connections:target in
  let table = Silkroad.Conn_table.create cfg in
  let vip = Common.vip 0 in
  let flow i =
    Netcore.Five_tuple.make
      ~src:
        (Netcore.Endpoint.make
           (Netcore.Ip.v6 (Int64.of_int (i / 60000)) (Int64.of_int i))
           (1 + (i mod 60000)))
      ~dst:vip ~proto:Netcore.Protocol.Tcp
  in
  let inserted = ref 0 and moves0 = Silkroad.Conn_table.moves table in
  (try
     for i = 0 to target - 1 do
       match Silkroad.Conn_table.insert table (flow i) ~version:(i mod 64) with
       | Ok _ -> incr inserted
       | Error `Duplicate -> ()
       | Error `Full -> raise Exit
     done
   with Exit -> ());
  Common.header ppf "Scalability: filling a large ConnTable (§5.2)";
  Common.row ppf [ "capacity"; string_of_int (Silkroad.Conn_table.capacity table) ];
  Common.row ppf [ "inserted"; string_of_int !inserted ];
  Common.row ppf [ "occupancy"; Common.pct (Silkroad.Conn_table.occupancy table) ];
  Common.row ppf [ "cuckoo moves"; string_of_int (Silkroad.Conn_table.moves table - moves0) ];
  Common.row ppf
    [ "SRAM (model)";
      Printf.sprintf "%.1f MB" (Silkroad.Memory_model.mb (Silkroad.Conn_table.sram_bits table)) ];
  (* every entry still resolves exactly *)
  let sample_ok = ref true in
  for i = 0 to 9_999 do
    let k = i * (target / 10_000) in
    match Silkroad.Conn_table.lookup table (flow k) with
    | Some r when r.Silkroad.Conn_table.exact -> ()
    | Some _ | None -> sample_ok := false
  done;
  Common.row ppf [ "lookup sample"; (if !sample_ok then "10k/10k exact" else "FAILED") ];
  Format.fprintf ppf
    "  paper anchors: 10M connections fit on-chip; the switch CPU sustains@.";
  Format.fprintf ppf "  ~200K insertions/s, the rate the model's switch CPU is configured with.@."

(* Network-wide replay suite: the cross-switch differential that gates
   the netwide engine, plus the routing and topology properties it
   stands on.

   Structure mirrors test_replay.ml's equivalence layers:

   - topology: §5.3 feasibility threaded through construction — an
     infeasible VIP→layer assignment fails at build time with the
     [net.*] diagnostics, warn/off modes degrade as documented.

   - route: qcheck properties of the per-layer rendezvous ECMP — same
     5-tuple, same path, on every call; every flow terminates on the
     layer the Assignment placed its VIP on; an Agg failure re-homes
     exactly the flows that transited the dead switch and a recovery
     routes them back.

   - differential: on a degenerate 1-Core/1-Agg/1-ToR topology whose
     placement puts every VIP on the single ToR, [Netwide.Replay.run]
     must be byte-identical in merged telemetry to the single-switch
     [Harness.Replay.run] — in scalar and in batch mode, on scripted-update,
     digest-collision and chaos traces. The netwide engine earns no
     slack on the workloads the single-switch engine already pins.

   - events: the paper's network-wide claim. A connection established
     before a ToR failure is re-routed to a different switch and must
     survive a concurrent DIP pool update with zero PCC violations;
     recovery routes it back, again without violations; a VIP migration
     moves only that VIP's flows. Failing a ToR after an update breaks
     only re-homed connections pinned to the old version (§7). *)

let check = Alcotest.check
let tc = Alcotest.test_case

(* ----- fixtures ----- *)

let default_vips = Experiments.Common.vips_of ~n_vips:4 ~dips_per_vip:8

let layer name switches sram_budget_bits capacity_gbps =
  { Silkroad.Assignment.layer_name = name; switches; sram_budget_bits; capacity_gbps }

(* generous per-switch budget: 50 MB of LB SRAM *)
let big = 50 * 8 * 1024 * 1024

(* the degenerate network: single switch per layer, Core and Agg with
   zero LB SRAM so the assignment provably lands every VIP on the ToR —
   routing transits Core and Agg but all connection state lives on one
   switch, exactly the single-switch replay's world *)
let degenerate_layers =
  [ layer "core" 1 0 10_000.; layer "agg" 1 0 10_000.; layer "tor" 1 big 10_000. ]

let degenerate_topo () = Netwide.Topology.build ~layers:degenerate_layers ~vips:default_vips ()

let make_switch ?(cfg = Silkroad.Config.default) ?(vips = default_vips) () () =
  let sw = Silkroad.Switch.create cfg in
  List.iter (fun (vip, pool) -> Silkroad.Switch.add_vip sw vip pool) vips;
  sw

let tiny_cfg =
  {
    Silkroad.Config.default with
    Silkroad.Config.conn_table_rows = 64;
    conn_table_ways = 2;
    conn_table_stages = 2;
    digest_bits = 6;
  }

(* ----- topology: feasibility at build time ----- *)

(* a ToR that cannot hold even one VIP's connection state *)
let infeasible_layers = [ layer "tor" 1 1_000 10_000. ]

let build_fails_on_infeasible () =
  match Netwide.Topology.build ~layers:infeasible_layers ~vips:default_vips () with
  | (_ : Netwide.Topology.t) -> Alcotest.fail "build accepted an infeasible placement"
  | exception Invalid_argument msg ->
    check Alcotest.bool "message carries the net.unplaced diagnostic" true
      (try
         ignore (Str.search_forward (Str.regexp_string "net.unplaced") msg 0);
         true
       with Not_found -> false)

let degenerate_places_all_on_tor () =
  let topo = degenerate_topo () in
  check Alcotest.int "three layers, three nodes" 3 (Netwide.Topology.n_nodes topo);
  List.iter
    (fun (vip, _) ->
      check Alcotest.int "VIP terminates on the ToR layer" 2
        (Netwide.Topology.layer_of_vip topo vip))
    default_vips;
  check Alcotest.int "nothing unplaced" 0
    (List.length topo.Netwide.Topology.placement.Silkroad.Assignment.unplaced)

(* ----- route: qcheck properties ----- *)

(* multi-path fabric: 2 Core, 4 Agg, 8 ToR; state pinned to the ToRs *)
let fabric_layers =
  [ layer "core" 2 0 10_000.; layer "agg" 4 0 10_000.; layer "tor" 8 big 10_000. ]

let fabric () = Netwide.Topology.build ~layers:fabric_layers ~vips:default_vips ()

let path_ids topo vip flow =
  List.map (fun n -> n.Netwide.Topology.node_id) (Netwide.Route.path topo ~vip flow)

let qcheck_route_deterministic =
  QCheck.Test.make ~name:"route: per-5-tuple path is deterministic and full-depth" ~count:30
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let topo = fabric () in
      let flows = Experiments.Common.fabric_flows ~seed ~n:40 ~span:10. default_vips in
      List.for_all
        (fun (f : Simnet.Flow.t) ->
          let vip = f.Simnet.Flow.tuple.Netcore.Five_tuple.dst in
          let p1 = path_ids topo vip f.Simnet.Flow.tuple in
          let p2 = path_ids topo vip f.Simnet.Flow.tuple in
          p1 = p2 && List.length p1 = 3)
        flows)

let qcheck_route_terminates_at_placement =
  QCheck.Test.make
    ~name:"route: every flow's owner sits on the layer the Assignment placed its VIP on"
    ~count:30
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let topo = fabric () in
      let assignment = topo.Netwide.Topology.placement.Silkroad.Assignment.assignment in
      let flows = Experiments.Common.fabric_flows ~seed ~n:40 ~span:10. default_vips in
      List.for_all
        (fun (f : Simnet.Flow.t) ->
          let vip = f.Simnet.Flow.tuple.Netcore.Five_tuple.dst in
          let placed_layer = List.assoc vip assignment in
          match Netwide.Route.owner topo ~vip f.Simnet.Flow.tuple with
          | None -> false
          | Some n -> String.equal n.Netwide.Topology.layer_name placed_layer)
        flows)

let qcheck_agg_failure_minimal_disruption =
  QCheck.Test.make
    ~name:"route: an Agg failure re-homes exactly the flows that transited it, recovery undoes it"
    ~count:30
    QCheck.(pair (int_bound 1_000_000) (int_bound 3))
    (fun (seed, agg_member) ->
      let topo = fabric () in
      let dead = topo.Netwide.Topology.layer_nodes.(1).(agg_member) in
      let flows = Experiments.Common.fabric_flows ~seed ~n:60 ~span:10. default_vips in
      let tuples =
        List.map
          (fun (f : Simnet.Flow.t) ->
            (f.Simnet.Flow.tuple.Netcore.Five_tuple.dst, f.Simnet.Flow.tuple))
          flows
      in
      let before = List.map (fun (vip, t) -> path_ids topo vip t) tuples in
      Netwide.Topology.set_up topo ~node_id:dead.Netwide.Topology.node_id false;
      let during = List.map (fun (vip, t) -> path_ids topo vip t) tuples in
      let ok =
        List.for_all2
          (fun old now ->
            if List.mem dead.Netwide.Topology.node_id old then
              (* only the Agg hop may change; Core and ToR choices are
                 independent rendezvous draws *)
              List.length now = 3
              && List.nth now 0 = List.nth old 0
              && List.nth now 2 = List.nth old 2
              && List.nth now 1 <> dead.Netwide.Topology.node_id
            else now = old)
          before during
      in
      Netwide.Topology.set_up topo ~node_id:dead.Netwide.Topology.node_id true;
      let after = List.map (fun (vip, t) -> path_ids topo vip t) tuples in
      ok && after = before)

(* ----- differential: degenerate topology vs single-switch replay ----- *)

let telemetry_json_h (r : Harness.Replay.result) =
  Telemetry.Snapshot.to_json (Telemetry.Registry.snapshot r.Harness.Replay.telemetry)

let telemetry_json_n (r : Netwide.Replay.result) =
  Telemetry.Snapshot.to_json (Telemetry.Registry.snapshot r.Netwide.Replay.telemetry)

let check_differential name (h : Harness.Replay.result) (n : Netwide.Replay.result) =
  check Alcotest.string (name ^ ": telemetry byte-identical") (telemetry_json_h h)
    (telemetry_json_n n);
  check Alcotest.int (name ^ ": packets") h.Harness.Replay.packets n.Netwide.Replay.packets;
  check Alcotest.int (name ^ ": dropped") h.Harness.Replay.dropped n.Netwide.Replay.dropped;
  check Alcotest.int (name ^ ": connections") h.Harness.Replay.connections
    n.Netwide.Replay.connections;
  check Alcotest.int (name ^ ": broken") h.Harness.Replay.broken n.Netwide.Replay.broken;
  check Alcotest.int (name ^ ": violations") h.Harness.Replay.violations
    n.Netwide.Replay.violations;
  check Alcotest.int (name ^ ": no flows moved") 0 n.Netwide.Replay.moved_flows;
  let no = Silkroad.Switch.no_dip in
  Array.iteri
    (fun i x ->
      let y = n.Netwide.Replay.first_dip.(i) in
      let same = if x == no then y == no else y != no && Netcore.Endpoint.equal x y in
      if not same then Alcotest.failf "%s: flow %d first DIP differs" name i)
    h.Harness.Replay.first_dip

let differential ?(cfg = Silkroad.Config.default) ~name ~trace ~controls () =
  let nw = Netwide.Replay.run ~cfg ~topo:(degenerate_topo ()) ~trace ~controls () in
  List.iter
    (fun (mode, label) ->
      let single = Harness.Replay.run ~mode ~make_switch:(make_switch ~cfg ()) ~trace ~controls () in
      check_differential (name ^ label) single nw)
    [ (Harness.Replay.Scalar, " (scalar)"); (Harness.Replay.Batch, " (batch)") ]

let differential_scripted () =
  let s =
    Experiments.Common.scenario ~conns_per_sec_per_vip:20. ~updates_per_min:6.
      ~trace_seconds:60. ()
  in
  let trace = Lazy.force s.Experiments.Common.trace in
  let controls =
    Harness.Replay.controls_of_updates ~horizon:s.Experiments.Common.horizon
      s.Experiments.Common.updates
  in
  differential ~name:"scripted" ~trace ~controls ()

let differential_collisions () =
  let flows = Experiments.Common.fabric_flows ~seed:4242 ~n:400 ~span:50. default_vips in
  let trace = Harness.Packed_trace.compile ~horizon:120. flows in
  (* non-vacuity: this workload must actually exercise false hits *)
  let probe =
    Harness.Replay.run ~make_switch:(make_switch ~cfg:tiny_cfg ()) ~trace ~controls:[] ()
  in
  check Alcotest.bool "digest collisions occurred" true (probe.Harness.Replay.false_hits > 0);
  differential ~cfg:tiny_cfg ~name:"collisions" ~trace ~controls:[] ()

let differential_chaos (scenario : Chaos.Scenario.t) () =
  let horizon = 120. in
  let flows = Experiments.Common.fabric_flows ~seed:9091 ~n:2000 ~span:90. default_vips in
  let inj = Chaos.Injector.create ~scenario ~seed:1117 ~vips:default_vips ~horizon () in
  let trace = Harness.Packed_trace.compile ~horizon flows in
  let controls = Harness.Replay.controls_of_chaos ~horizon (Chaos.Injector.events inj) in
  differential ~name:scenario.Chaos.Scenario.name ~trace ~controls ()

(* ----- events: the network-wide PCC claim ----- *)

(* 1 transit Core over 2 state-holding ToRs: the smallest fabric where a
   switch failure re-routes connections to a different switch *)
let two_tor_layers = [ layer "core" 1 0 10_000.; layer "tor" 2 big 10_000. ]

let two_tor () = Netwide.Topology.build ~layers:two_tor_layers ~vips:default_vips ()

(* ToR node ids in the 1-Core/2-ToR fabric *)
let tor_a = 1

(* A connection established before a ToR failure is re-routed to the
   surviving ToR and must ride out a concurrent DIP pool update with
   zero PCC violations: the §4.3 protocol (old version stays current
   through the recording step, the stalled CPU widens the window) pins
   every re-routed flow to the pool its very first packet selected
   from. *)
let failure_with_concurrent_update () =
  let topo = two_tor () in
  let flows = Experiments.Common.fabric_flows ~seed:777 ~n:800 ~span:25. default_vips in
  let trace = Harness.Packed_trace.compile ~probe_interval:1. ~horizon:120. flows in
  let vip0, pool0 = List.hd default_vips in
  let removed = (Lb.Dip_pool.members pool0).(0) in
  let controls =
    (29., Harness.Replay.Cpu_backlog 1_000_000)
    :: Harness.Replay.controls_of_updates ~horizon:120.
         [ (30.4, vip0, Lb.Balancer.Dip_remove removed) ]
  in
  let events = [ (30., Netwide.Replay.Switch_down tor_a) ] in
  let r = Netwide.Replay.run ~topo ~trace ~controls ~events () in
  check Alcotest.bool "workload is non-trivial" true
    (r.Netwide.Replay.connections > 300 && r.Netwide.Replay.packets > 10_000);
  check Alcotest.bool "the failure re-homed connections" true
    (r.Netwide.Replay.moved_flows > 0);
  check Alcotest.int "zero PCC violations across the re-route + update" 0
    r.Netwide.Replay.violations

let failure_and_recovery () =
  let topo = two_tor () in
  let flows = Experiments.Common.fabric_flows ~seed:888 ~n:600 ~span:25. default_vips in
  let trace = Harness.Packed_trace.compile ~probe_interval:1. ~horizon:120. flows in
  let events =
    [ (30., Netwide.Replay.Switch_down tor_a); (60., Netwide.Replay.Switch_up tor_a) ]
  in
  let r = Netwide.Replay.run ~topo ~trace ~events () in
  check Alcotest.bool "flows moved away and back" true (r.Netwide.Replay.moved_flows > 0);
  check Alcotest.int "zero PCC violations across the down/up cycle" 0
    r.Netwide.Replay.violations;
  let json = telemetry_json_n r in
  let has s =
    try
      ignore (Str.search_forward (Str.regexp_string s) json 0);
      true
    with Not_found -> false
  in
  check Alcotest.bool "netwide.switch_downs in merged telemetry" true (has "netwide.switch_downs");
  check Alcotest.bool "netwide.switch_ups in merged telemetry" true (has "netwide.switch_ups")

let vip_migration_moves_only_its_flows () =
  (* Agg has no LB SRAM budget, so the assignment starts every VIP on
     the ToRs; the migration then pulls one VIP up to the Agg switch *)
  let layers = [ layer "agg" 1 0 10_000.; layer "tor" 2 big 10_000. ] in
  let topo = Netwide.Topology.build ~layers ~vips:default_vips () in
  let flows = Experiments.Common.fabric_flows ~seed:999 ~n:600 ~span:25. default_vips in
  let trace = Harness.Packed_trace.compile ~probe_interval:1. ~horizon:120. flows in
  let vip0, _ = List.hd default_vips in
  let events = [ (40., Netwide.Replay.Vip_move (vip0, "agg")) ] in
  let r = Netwide.Replay.run ~topo ~trace ~events () in
  let vip0_flows =
    List.length
      (List.filter
         (fun (f : Simnet.Flow.t) ->
           Netcore.Endpoint.equal f.Simnet.Flow.tuple.Netcore.Five_tuple.dst vip0)
         flows)
  in
  check Alcotest.bool "the migrated VIP had flows" true (vip0_flows > 0);
  check Alcotest.int "exactly the VIP's flows re-homed" vip0_flows
    r.Netwide.Replay.moved_flows;
  check Alcotest.int "zero PCC violations across the migration" 0
    r.Netwide.Replay.violations;
  check Alcotest.int "the moved VIP now terminates on the Agg" 0
    (Netwide.Topology.layer_of_vip topo vip0)

(* 3 state-holding ToRs and nothing above them: the redundant group of
   §7 "Handle switch failures", every ToR hosting every VIP *)
let three_tor () =
  Netwide.Topology.build ~layers:[ layer "tor" 3 big 10_000. ] ~vips:default_vips ()

(* §7: a failed switch breaks only the connections it had pinned to an
   old version. ToR 0 dies at t=12; the update at t=10 pins every
   connection learned before it to the old version on its ToR, and the
   survivors hash ToR 0's connections under the new pool, so some
   break — and only re-homed ones can. Without the update every ToR
   still holds the pool those connections were hashed under. *)
let tor_failure_at_12 controls =
  let flows = Experiments.Common.fabric_flows ~seed:4141 ~n:600 ~span:5. default_vips in
  let trace = Harness.Packed_trace.compile ~probe_interval:1. ~horizon:30. flows in
  Netwide.Replay.run ~topo:(three_tor ()) ~trace ~controls
    ~events:[ (12., Netwide.Replay.Switch_down 0) ]
    ()

let failure_without_update () =
  let r = tor_failure_at_12 [] in
  check Alcotest.bool "the failure re-homed connections" true (r.Netwide.Replay.moved_flows > 0);
  check Alcotest.int "zero broken" 0 r.Netwide.Replay.broken

let update_then_failure () =
  let vip0, _ = List.hd default_vips in
  let r =
    tor_failure_at_12
      (Harness.Replay.controls_of_updates ~horizon:30.
         [ (10., vip0, Lb.Balancer.Dip_add (Experiments.Common.dip 100)) ])
  in
  let broken = r.Netwide.Replay.broken in
  check Alcotest.bool (Printf.sprintf "some broke (%d)" broken) true (broken > 0);
  check Alcotest.bool
    (Printf.sprintf "only re-homed connections break (%d <= %d)" broken
       r.Netwide.Replay.moved_flows)
    true
    (broken <= r.Netwide.Replay.moved_flows)

let parallel_matches_sequential () =
  let flows = Experiments.Common.fabric_flows ~seed:31337 ~n:400 ~span:25. default_vips in
  let trace = Harness.Packed_trace.compile ~probe_interval:1. ~horizon:90. flows in
  let events =
    [ (30., Netwide.Replay.Switch_down tor_a); (60., Netwide.Replay.Switch_up tor_a) ]
  in
  let run parallel = Netwide.Replay.run ~parallel ~topo:(two_tor ()) ~trace ~events () in
  let seq = run false in
  let par = run true in
  check Alcotest.string "parallel telemetry byte-identical to sequential"
    (telemetry_json_n seq) (telemetry_json_n par);
  check Alcotest.int "parallel packets" seq.Netwide.Replay.packets par.Netwide.Replay.packets;
  check Alcotest.int "parallel violations" seq.Netwide.Replay.violations
    par.Netwide.Replay.violations;
  check Alcotest.int "parallel moved" seq.Netwide.Replay.moved_flows
    par.Netwide.Replay.moved_flows

(* ----- golden: multi-switch netwide under every chaos control ----- *)

(* 1 Core / 2 Agg / 3 ToR, state on the ToRs (node ids 3..5) *)
let golden_layers =
  [ layer "core" 1 0 10_000.; layer "agg" 2 0 10_000.; layer "tor" 3 big 10_000. ]

(* MD5 of the merged telemetry JSON and of every flow's first DIP, for
   each chaos scenario replayed across a ToR failure and recovery. Pins
   every control kind (updates, DIP deaths, CPU backlogs, attack SYNs,
   re-routes) on a fabric with more than one state-holding switch. *)
let netwide_golden =
  [
    ("quiet", "dc20dd0ee78513386ad2a36e2a47497b", "6fdde45615fe8e7b0b3ddf407d87a029");
    ("dip-mass-failure", "275d2c30b5db01715f881ec5682a7985", "9f3ce027f6eb9c8088736cdbe64be2d8");
    ("dip-flap", "855575fbc1a009871cfd29bcb065bb66", "e82df28ff581209bbbf904f671648a7d");
    ("cpu-stall", "0af3d336c26946064955a062e59ab584", "a143317e1c3b9e1d1f92ec22ad64c65e");
    ("control-partition", "3cc348023a067a2fc9ca5b1f2f0b6d5e", "fa0049e1647839f37102154f9ef93b82");
    ("syn-flood", "55a3d8deecf60fcdfe11b45ad09ab245", "78c7c620056b06949c400efdd0f47c8e");
    ("update-storm", "baf522a717cf45b12384a721bb94681e", "53c6634a1ffc1f05033c1ef55b040b2c");
    ("switch-failure", "bd09532ca4a1964658b3d6aefd0b047e", "e046186d8fcc52dabdadf7c16b8a48e8");
    ("vip-migration", "b3d0ad2b3831a77ee904d11785998634", "e046186d8fcc52dabdadf7c16b8a48e8");
  ]

let netwide_golden_case (scenario, tel_digest, dip_digest) =
  tc scenario `Quick (fun () ->
      let horizon = 120. in
      let topo = Netwide.Topology.build ~layers:golden_layers ~vips:default_vips () in
      let flows = Experiments.Common.fabric_flows ~seed:9091 ~n:2000 ~span:90. default_vips in
      let scenario = Option.get (Chaos.Scenario.find scenario) in
      let inj = Chaos.Injector.create ~scenario ~seed:1117 ~vips:default_vips ~horizon () in
      let trace = Harness.Packed_trace.compile ~probe_interval:1. ~horizon flows in
      let controls = Harness.Replay.controls_of_chaos ~horizon (Chaos.Injector.events inj) in
      let events = [ (30., Netwide.Replay.Switch_down 3); (70., Netwide.Replay.Switch_up 3) ] in
      let r = Netwide.Replay.run ~topo ~trace ~controls ~events () in
      let dips =
        Array.map
          (fun d -> if d == Silkroad.Switch.no_dip then "-" else Netcore.Endpoint.to_string d)
          r.Netwide.Replay.first_dip
      in
      check Alcotest.string "telemetry digest" tel_digest
        (Digest.to_hex (Digest.string (telemetry_json_n r)));
      check Alcotest.string "first-DIP digest" dip_digest
        (Digest.to_hex (Digest.string (String.concat "," (Array.to_list dips)))))

let chaos_cases make =
  List.map
    (fun (sc : Chaos.Scenario.t) -> tc sc.Chaos.Scenario.name `Slow (make sc))
    Chaos.Scenario.all

let suites =
  [
    ( "netwide.topology",
      [
        tc "infeasible placement fails at build" `Quick build_fails_on_infeasible;
        tc "degenerate topology pins every VIP to the ToR" `Quick degenerate_places_all_on_tor;
      ] );
    ( "netwide.route",
      [
        QCheck_alcotest.to_alcotest qcheck_route_deterministic;
        QCheck_alcotest.to_alcotest qcheck_route_terminates_at_placement;
        QCheck_alcotest.to_alcotest qcheck_agg_failure_minimal_disruption;
      ] );
    ( "netwide.differential",
      tc "scripted updates" `Quick differential_scripted
      :: tc "digest collisions" `Quick differential_collisions
      :: chaos_cases differential_chaos );
    ( "netwide.events",
      [
        tc "failure + concurrent update: zero violations" `Slow failure_with_concurrent_update;
        tc "failure and recovery round trip" `Quick failure_and_recovery;
        tc "vip migration moves only its flows" `Quick vip_migration_moves_only_its_flows;
        tc "fail without update" `Quick failure_without_update;
        tc "update then fail" `Quick update_then_failure;
        tc "parallel = sequential" `Quick parallel_matches_sequential;
      ] );
    ("netwide.golden", List.map netwide_golden_case netwide_golden);
  ]

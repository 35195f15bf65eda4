(* Differential model-checking suite for the fast-path replay engine.

   Three equivalence layers, each pinning one leg of the replay
   contract:

   - oracle: the switch against a pure reference model (a plain function
     of the 5-tuple, no digests, no versions, no tables) on
     qcheck-random traces. On update-free traces the switch must agree
     with the reference for EVERY flow — even digest-colliding ones,
     because a false hit forwards with the colliding entry's version,
     and with a single live version that resolves to the same pool and
     the same per-flow ECMP choice. Under an update, versions diverge,
     so the guarantee narrows to collision-free flows (collisions
     computed from pure table geometry via Conn_table.probe_positions)
     — digest collisions are the only divergence class, as §4.2 argues.

   - driver vs replay: Driver.run and Replay.run in Scalar mode run
     the same Replay.Stepper loop, so packet order, control
     tie-breaking and control semantics are shared by construction.
     What differs is the per-packet probe: the Driver sends a packet
     record through the balancer's closures ([advance], then
     [process]), Scalar calls Switch.process_flow directly. Their
     counters must agree exactly on scripted-update workloads and under
     all chaos scenarios.

   - scalar vs batch vs sharded: Batch must be byte-identical to Scalar
     (same switch, same order, only the boxing differs), checked as
     telemetry-JSON string equality. Sharded runs per-shard ConnTables
     whose collision and Bloom false-positive classes shrink, so it is
     compared on the collision-free counter set, with scalar
     [false_hits = 0] asserted as the precondition. *)

let check = Alcotest.check
let tc = Alcotest.test_case

(* ----- workload construction ----- *)

let default_vips = Experiments.Common.vips_of ~n_vips:4 ~dips_per_vip:8

let make_switch ?(cfg = Silkroad.Config.default) ?(vips = default_vips) () () =
  let sw = Silkroad.Switch.create cfg in
  List.iter (fun (vip, pool) -> Silkroad.Switch.add_vip sw vip pool) vips;
  sw

(* The pure reference model: a flow's DIP is a function of its 5-tuple
   and its VIP's pool — exactly the per-flow ECMP choice Dip_pool_table
   makes, with none of the switch's machinery. *)
let reference ~seed vips (flow : Simnet.Flow.t) =
  let pool = List.assoc flow.Simnet.Flow.tuple.Netcore.Five_tuple.dst vips in
  Lb.Dip_pool.select_flow ~seed pool flow.Simnet.Flow.tuple

(* Collision classes from pure geometry: two flows can falsely hit each
   other iff they share a (stage, row, digest) triple in a ConnTable of
   this configuration. *)
let colliding_flows cfg flows =
  let table = Silkroad.Conn_table.create cfg in
  let seen = Hashtbl.create 256 in
  let collides = Hashtbl.create 16 in
  List.iteri
    (fun i (flow : Simnet.Flow.t) ->
      List.iter
        (fun pos ->
          match Hashtbl.find_opt seen pos with
          | Some j when j <> i ->
            Hashtbl.replace collides i ();
            Hashtbl.replace collides j ()
          | Some _ -> ()
          | None -> Hashtbl.replace seen pos i)
        (Silkroad.Conn_table.probe_positions table flow.Simnet.Flow.tuple))
    flows;
  fun i -> Hashtbl.mem collides i

(* A small config where 6-bit digests in a 256-entry table make
   collisions common enough for qcheck to exercise them. *)
let tiny_cfg =
  {
    Silkroad.Config.default with
    Silkroad.Config.conn_table_rows = 64;
    conn_table_ways = 2;
    conn_table_stages = 2;
    digest_bits = 6;
  }

(* ----- oracle tests ----- *)

let oracle_update_free cfg name =
  QCheck.Test.make ~name ~count:10 QCheck.(int_bound 1_000_000) (fun seed ->
      let flows = Experiments.Common.fabric_flows ~seed ~n:150 ~span:100. default_vips in
      let trace = Harness.Packed_trace.compile ~horizon:170. flows in
      let r =
        Harness.Replay.run ~make_switch:(make_switch ~cfg ()) ~trace ~controls:[] ()
      in
      List.iteri
        (fun i flow ->
          let expected = reference ~seed:cfg.Silkroad.Config.seed default_vips flow in
          if not (Netcore.Endpoint.equal r.Harness.Replay.first_dip.(i) expected) then
            QCheck.Test.fail_reportf "flow %d: switch %a, reference %a" i Netcore.Endpoint.pp
              r.Harness.Replay.first_dip.(i) Netcore.Endpoint.pp expected)
        flows;
      true)

let qcheck_oracle_default = oracle_update_free Silkroad.Config.default "oracle: update-free trace matches reference model (default config)"

let qcheck_oracle_tiny =
  oracle_update_free tiny_cfg
    "oracle: update-free trace matches reference even with 6-bit digest collisions"

(* With an update in flight versions diverge, so the reference holds for
   collision-free flows only: flows whose first packet precedes the
   update resolve against the old pool, later ones against old or new
   (depending on where the VIP is in its update protocol when the SYN
   lands). Colliding flows are exactly the allowed divergence class. *)
let qcheck_oracle_under_update =
  QCheck.Test.make ~name:"oracle: under one update, collision-free flows match old/new reference"
    ~count:10
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let cfg = tiny_cfg in
      let vips = default_vips in
      let flows = Experiments.Common.fabric_flows ~seed ~n:150 ~span:100. vips in
      let vip0, pool0 = List.hd vips in
      let removed = (Lb.Dip_pool.members pool0).(0) in
      let update_at = 60. in
      let trace = Harness.Packed_trace.compile ~horizon:170. flows in
      let controls =
        Harness.Replay.controls_of_updates ~horizon:170.
          [ (update_at, vip0, Lb.Balancer.Dip_remove removed) ]
      in
      let r = Harness.Replay.run ~make_switch:(make_switch ~cfg ~vips ()) ~trace ~controls () in
      let collides = colliding_flows cfg flows in
      let old_vips = vips in
      let new_vips = (vip0, Lb.Dip_pool.remove pool0 removed) :: List.tl vips in
      List.iteri
        (fun i (flow : Simnet.Flow.t) ->
          if not (collides i) then begin
            let got = r.Harness.Replay.first_dip.(i) in
            let seed = cfg.Silkroad.Config.seed in
            let old_choice = reference ~seed old_vips flow in
            let new_choice = reference ~seed new_vips flow in
            let ok =
              if flow.Simnet.Flow.start <= update_at then Netcore.Endpoint.equal got old_choice
              else
                Netcore.Endpoint.equal got old_choice || Netcore.Endpoint.equal got new_choice
            in
            if not ok then
              QCheck.Test.fail_reportf "flow %d (start %.2f): switch %a, reference old %a new %a"
                i flow.Simnet.Flow.start Netcore.Endpoint.pp got Netcore.Endpoint.pp old_choice
                Netcore.Endpoint.pp new_choice
          end)
        flows;
      true)

(* The tiny config must actually produce false hits on a dense workload
   — otherwise the collision leg of the oracle is vacuous. *)
let tiny_config_collides () =
  let flows = Experiments.Common.fabric_flows ~seed:4242 ~n:400 ~span:50. default_vips in
  let trace = Harness.Packed_trace.compile ~horizon:120. flows in
  let r = Harness.Replay.run ~make_switch:(make_switch ~cfg:tiny_cfg ()) ~trace ~controls:[] () in
  check Alcotest.bool "false hits occurred" true (r.Harness.Replay.false_hits > 0);
  (* ... and the oracle equality above still held for every flow. *)
  List.iteri
    (fun i flow ->
      check Alcotest.bool "matches reference" true
        (Netcore.Endpoint.equal r.Harness.Replay.first_dip.(i)
           (reference ~seed:tiny_cfg.Silkroad.Config.seed default_vips flow)))
    flows

(* ----- driver vs replay ----- *)

let check_counters name (d : Harness.Driver.result) (r : Harness.Replay.result) =
  check Alcotest.int (name ^ ": packets") d.Harness.Driver.packets r.Harness.Replay.packets;
  check Alcotest.int (name ^ ": dropped") d.Harness.Driver.dropped_packets
    r.Harness.Replay.dropped;
  check Alcotest.int (name ^ ": connections") d.Harness.Driver.connections
    r.Harness.Replay.connections;
  check Alcotest.int (name ^ ": broken") d.Harness.Driver.broken_connections
    r.Harness.Replay.broken;
  check Alcotest.int (name ^ ": violations") d.Harness.Driver.violation_packets
    r.Harness.Replay.violations

let scripted_scenario () =
  Experiments.Common.scenario ~conns_per_sec_per_vip:20. ~updates_per_min:6. ~trace_seconds:60.
    ()

let replay_of_scenario ~mode (s : Experiments.Common.scenario) =
  let trace = Lazy.force s.Experiments.Common.trace in
  let controls =
    Harness.Replay.controls_of_updates ~horizon:s.Experiments.Common.horizon
      s.Experiments.Common.updates
  in
  Harness.Replay.run ~mode ~make_switch:(make_switch ()) ~trace ~controls ()

let driver_of_scenario ?chaos (s : Experiments.Common.scenario) =
  let _sw, balancer = Experiments.Common.silkroad ~vips:default_vips () in
  Harness.Driver.run ?chaos ~balancer ~trace:(Lazy.force s.Experiments.Common.trace)
    ~updates:s.Experiments.Common.updates ()

let driver_vs_scalar_scripted () =
  let s = scripted_scenario () in
  let d = driver_of_scenario s in
  let r = replay_of_scenario ~mode:Harness.Replay.Scalar s in
  check Alcotest.bool "workload is non-trivial" true
    (d.Harness.Driver.connections > 1000 && d.Harness.Driver.packets > 10_000);
  check_counters "scripted" d r

let chaos_workload (scenario : Chaos.Scenario.t) =
  let horizon = 120. in
  let flows = Experiments.Common.fabric_flows ~seed:9091 ~n:2000 ~span:90. default_vips in
  let inj =
    Chaos.Injector.create ~scenario ~seed:1117 ~vips:default_vips ~horizon ()
  in
  (flows, inj, horizon)

let driver_vs_scalar_chaos (scenario : Chaos.Scenario.t) () =
  let flows, inj, horizon = chaos_workload scenario in
  let _sw, balancer = Experiments.Common.silkroad ~vips:default_vips () in
  let trace = Harness.Packed_trace.compile ~horizon flows in
  let d = Harness.Driver.run ~chaos:inj ~balancer ~trace ~updates:[] () in
  let controls = Harness.Replay.controls_of_chaos ~horizon (Chaos.Injector.events inj) in
  let r =
    Harness.Replay.run ~mode:Harness.Replay.Scalar ~make_switch:(make_switch ()) ~trace
      ~controls ()
  in
  check_counters scenario.Chaos.Scenario.name d r

(* Exact ties. Flow starts, lifetimes and scripted update times sit on a
   0.5 s grid, and the chaos scenarios fire at round times, so controls
   land exactly on packet timestamps — where "packets at t fire before a
   control at t, chaos before scripted updates" is the whole contract.
   The scripted updates add and later remove fresh DIPs the chaos
   timeline never touches, so the two streams cannot desynchronise
   membership. *)
let tie_scenarios = [ "quiet"; "dip-mass-failure"; "dip-flap"; "cpu-stall"; "switch-failure" ]

let qcheck_driver_vs_scalar_ties =
  QCheck.Test.make ~name:"driver = scalar when controls tie with packets" ~count:20
    QCheck.(pair (int_bound 1_000_000) (int_bound (List.length tie_scenarios - 1)))
    (fun (seed, sc) ->
      let horizon = 60. in
      let grid x = 0.5 *. Float.round (x /. 0.5) in
      let flows =
        List.map
          (fun (f : Simnet.Flow.t) ->
            { f with Simnet.Flow.start = grid f.Simnet.Flow.start;
                     duration = Float.max 0.5 (grid f.Simnet.Flow.duration) })
          (Experiments.Common.fabric_flows ~seed ~n:150 ~span:50. default_vips)
      in
      let rng = Random.State.make [| seed; 0x71e |] in
      let updates =
        List.concat
          (List.mapi
             (fun i (vip, _) ->
               let fresh = Experiments.Common.dip (7000 + i) in
               let t_add = 0.5 *. float_of_int (1 + Random.State.int rng 100) in
               let t_rm = t_add +. (0.5 *. float_of_int (1 + Random.State.int rng 20)) in
               [ (t_add, vip, Lb.Balancer.Dip_add fresh); (t_rm, vip, Lb.Balancer.Dip_remove fresh) ])
             default_vips)
      in
      let scenario = Option.get (Chaos.Scenario.find (List.nth tie_scenarios sc)) in
      let inj = Chaos.Injector.create ~scenario ~seed ~vips:default_vips ~horizon () in
      let _sw, balancer = Experiments.Common.silkroad ~vips:default_vips () in
      let trace = Harness.Packed_trace.compile ~horizon flows in
      let d = Harness.Driver.run ~chaos:inj ~balancer ~trace ~updates () in
      let r =
        Harness.Replay.run ~mode:Harness.Replay.Scalar ~make_switch:(make_switch ()) ~trace
          ~controls:
            (Harness.Replay.controls_of_chaos ~horizon (Chaos.Injector.events inj)
            @ Harness.Replay.controls_of_updates ~horizon updates)
          ()
      in
      let driver =
        ( d.Harness.Driver.packets, d.Harness.Driver.dropped_packets, d.Harness.Driver.connections,
          d.Harness.Driver.broken_connections, d.Harness.Driver.violation_packets )
      and scalar =
        ( r.Harness.Replay.packets, r.Harness.Replay.dropped, r.Harness.Replay.connections,
          r.Harness.Replay.broken, r.Harness.Replay.violations )
      in
      let pp (p, dr, c, b, v) = Printf.sprintf "packets %d dropped %d conns %d broken %d viol %d" p dr c b v in
      if driver <> scalar then
        QCheck.Test.fail_reportf "%s: driver %s, scalar %s" scenario.Chaos.Scenario.name (pp driver)
          (pp scalar);
      true)

(* ----- scalar vs batch vs sharded ----- *)

let telemetry_json (r : Harness.Replay.result) =
  Telemetry.Snapshot.to_json (Telemetry.Registry.snapshot r.Harness.Replay.telemetry)

let scalar_vs_batch_scripted () =
  let s = scripted_scenario () in
  let scalar = replay_of_scenario ~mode:Harness.Replay.Scalar s in
  let batch = replay_of_scenario ~mode:Harness.Replay.Batch s in
  check Alcotest.string "telemetry byte-identical" (telemetry_json scalar)
    (telemetry_json batch)

let scalar_vs_batch_chaos (scenario : Chaos.Scenario.t) () =
  let flows, inj, horizon = chaos_workload scenario in
  let trace = Harness.Packed_trace.compile ~horizon flows in
  let controls = Harness.Replay.controls_of_chaos ~horizon (Chaos.Injector.events inj) in
  let run mode = Harness.Replay.run ~mode ~make_switch:(make_switch ()) ~trace ~controls () in
  let scalar = run Harness.Replay.Scalar in
  let batch = run Harness.Replay.Batch in
  check Alcotest.string
    (scenario.Chaos.Scenario.name ^ ": telemetry byte-identical")
    (telemetry_json scalar) (telemetry_json batch)

let check_shard_counters ?(exact_pcc = true) name (scalar : Harness.Replay.result)
    (sharded : Harness.Replay.result) =
  (* precondition for exact equality on the collision-free counter set *)
  check Alcotest.int (name ^ ": scalar run is collision-free") 0
    scalar.Harness.Replay.false_hits;
  check Alcotest.int (name ^ ": packets") scalar.Harness.Replay.packets
    sharded.Harness.Replay.packets;
  check Alcotest.int (name ^ ": dropped") scalar.Harness.Replay.dropped
    sharded.Harness.Replay.dropped;
  check Alcotest.int (name ^ ": connections") scalar.Harness.Replay.connections
    sharded.Harness.Replay.connections;
  if exact_pcc then begin
    check Alcotest.int (name ^ ": broken") scalar.Harness.Replay.broken
      sharded.Harness.Replay.broken;
    check Alcotest.int (name ^ ": violations") scalar.Harness.Replay.violations
      sharded.Harness.Replay.violations
  end
  else begin
    (* Re-route scenarios: the relaxed contract stated in replay.mli. *)
    let rerouted (r : Harness.Replay.result) =
      Telemetry.Registry.counter_value r.Harness.Replay.telemetry "switch.rerouted_flows"
    in
    check Alcotest.int (name ^ ": rerouted flows") (rerouted scalar) (rerouted sharded);
    check Alcotest.bool (name ^ ": scalar breaks only re-homed conns") true
      (scalar.Harness.Replay.broken <= rerouted scalar);
    check Alcotest.bool (name ^ ": sharded breaks only re-homed conns") true
      (sharded.Harness.Replay.broken <= rerouted sharded)
  end

let sharded_vs_scalar_scripted () =
  let s = scripted_scenario () in
  let scalar = replay_of_scenario ~mode:Harness.Replay.Scalar s in
  let sharded =
    replay_of_scenario ~mode:(Harness.Replay.Sharded { shards = 4; parallel = false }) s
  in
  check_shard_counters "scripted" scalar sharded

let sharded_vs_scalar_chaos (scenario : Chaos.Scenario.t) () =
  let flows, inj, horizon = chaos_workload scenario in
  let trace = Harness.Packed_trace.compile ~horizon flows in
  let controls = Harness.Replay.controls_of_chaos ~horizon (Chaos.Injector.events inj) in
  let run mode = Harness.Replay.run ~mode ~make_switch:(make_switch ()) ~trace ~controls () in
  let scalar = run Harness.Replay.Scalar in
  let sharded = run (Harness.Replay.Sharded { shards = 4; parallel = false }) in
  let exact_pcc =
    not
      (List.exists
         (function
           | Chaos.Scenario.Switch_failure _ | Chaos.Scenario.Vip_migration _ -> true
           | _ -> false)
         scenario.Chaos.Scenario.faults)
  in
  check_shard_counters ~exact_pcc scenario.Chaos.Scenario.name scalar sharded

let parallel_matches_sequential () =
  let s = scripted_scenario () in
  let seq = replay_of_scenario ~mode:(Harness.Replay.Sharded { shards = 4; parallel = false }) s in
  let par = replay_of_scenario ~mode:(Harness.Replay.Sharded { shards = 4; parallel = true }) s in
  check Alcotest.string "parallel telemetry byte-identical to sequential" (telemetry_json seq)
    (telemetry_json par);
  check Alcotest.int "parallel packets" seq.Harness.Replay.packets par.Harness.Replay.packets;
  check Alcotest.int "parallel broken" seq.Harness.Replay.broken par.Harness.Replay.broken

(* shard_of must be a total assignment, stable in the tuple *)
let qcheck_shard_of_range =
  QCheck.Test.make ~name:"shard_of lands in range and is deterministic" ~count:200
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let flows = Experiments.Common.fabric_flows ~seed ~n:20 ~span:10. default_vips in
      List.for_all
        (fun (f : Simnet.Flow.t) ->
          let k = Harness.Replay.shard_of ~shards:7 f.Simnet.Flow.tuple in
          k >= 0 && k < 7 && k = Harness.Replay.shard_of ~shards:7 f.Simnet.Flow.tuple)
        flows)

(* ----- packed trace ----- *)

let compile_matches_driver_schedule () =
  let s = scripted_scenario () in
  let t = Harness.Packed_trace.compile ~horizon:s.Experiments.Common.horizon s.Experiments.Common.flows in
  let d = driver_of_scenario { s with Experiments.Common.updates = [] } in
  check Alcotest.int "packet-for-packet with the driver" d.Harness.Driver.packets
    (Harness.Packed_trace.n_packets t);
  (* times must be sorted (ties kept in emission order by construction) *)
  let sorted = ref true in
  for i = 1 to Harness.Packed_trace.n_packets t - 1 do
    if t.Harness.Packed_trace.times.(i) < t.Harness.Packed_trace.times.(i - 1) then sorted := false
  done;
  check Alcotest.bool "times sorted" true !sorted

let chaos_cases make =
  List.map
    (fun (sc : Chaos.Scenario.t) -> tc sc.Chaos.Scenario.name `Slow (make sc))
    Chaos.Scenario.all

let suites =
  [
    ( "replay.oracle",
      [
        QCheck_alcotest.to_alcotest qcheck_oracle_default;
        QCheck_alcotest.to_alcotest qcheck_oracle_tiny;
        QCheck_alcotest.to_alcotest qcheck_oracle_under_update;
        tc "tiny config actually collides" `Quick tiny_config_collides;
      ] );
    ( "replay.driver_equivalence",
      tc "scripted updates" `Quick driver_vs_scalar_scripted
      :: QCheck_alcotest.to_alcotest qcheck_driver_vs_scalar_ties
      :: chaos_cases driver_vs_scalar_chaos );
    ( "replay.batch_equivalence",
      tc "scripted updates" `Quick scalar_vs_batch_scripted :: chaos_cases scalar_vs_batch_chaos
    );
    ( "replay.shard_equivalence",
      tc "scripted updates" `Quick sharded_vs_scalar_scripted
      :: tc "parallel = sequential" `Quick parallel_matches_sequential
      :: QCheck_alcotest.to_alcotest qcheck_shard_of_range
      :: chaos_cases sharded_vs_scalar_chaos );
    ( "replay.packed_trace",
      [
        tc "compile matches driver schedule" `Quick compile_matches_driver_schedule;
      ] );
  ]

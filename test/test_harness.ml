(* Tests for the experiment driver: probe trains, PCC wiring, traffic
   attribution, latency accounting. *)

let check = Alcotest.check
let tc = Alcotest.test_case

let dip i = Netcore.Endpoint.v4 10 0 0 i 20
let vip = Netcore.Endpoint.v4 20 0 0 1 80

let flow ~id ~start ~duration =
  {
    Simnet.Flow.id;
    tuple =
      Netcore.Five_tuple.make
        ~src:(Netcore.Endpoint.v4 1 2 3 4 (1000 + id))
        ~dst:vip ~proto:Netcore.Protocol.Tcp;
    start;
    duration;
    bytes_per_sec = 1000.;
  }

(* a balancer that records every packet it sees *)
let recording_balancer () =
  let log = ref [] in
  let b =
    {
      Lb.Balancer.name = "recorder";
      advance = (fun ~now:_ -> ());
      process =
        (fun ~now pkt ->
          log := (now, pkt.Netcore.Packet.flags) :: !log;
          { Lb.Balancer.dip = Some (dip 1); location = Lb.Balancer.Asic });
      update = (fun ~now:_ ~vip:_ _ -> ());
      connections = (fun () -> 0);
      metrics =
        (let reg = Telemetry.Registry.create () in
         fun () -> reg);
      disturb = (fun ~now:_ _ -> ());
    }
  in
  (b, log)

let probe_train_shape () =
  let b, log = recording_balancer () in
  let f = flow ~id:1 ~start:10. ~duration:40. in
  let r = Harness.Driver.run ~balancer:b ~flows:[ f ] ~updates:[] ~horizon:100. () in
  let events = List.rev !log in
  (* first packet is the SYN at flow start *)
  (match events with
   | (t0, flags) :: _ ->
     check (Alcotest.float 1e-9) "syn time" 10. t0;
     check Alcotest.bool "syn" true (Netcore.Tcp_flags.is_connection_start flags)
   | [] -> Alcotest.fail "no packets");
  (* last is the FIN at flow end *)
  (match List.rev events with
   | (t_last, flags) :: _ ->
     check (Alcotest.float 1e-9) "fin time" 50. t_last;
     check Alcotest.bool "fin" true (Netcore.Tcp_flags.is_connection_end flags)
   | [] -> assert false);
  (* early probes inside the learning window *)
  check Alcotest.bool "early probe at +250us" true
    (List.exists (fun (t, _) -> abs_float (t -. 10.00025) < 1e-9) events);
  (* steady probes every 15 s: 25 and 40 *)
  check Alcotest.bool "steady probes" true
    (List.exists (fun (t, _) -> abs_float (t -. 25.) < 1e-9) events
     && List.exists (fun (t, _) -> abs_float (t -. 40.) < 1e-9) events);
  check Alcotest.int "one connection" 1 r.Harness.Driver.connections;
  check Alcotest.int "no violations" 0 r.Harness.Driver.broken_connections

let horizon_truncates () =
  let b, log = recording_balancer () in
  let f = flow ~id:1 ~start:10. ~duration:1000. in
  ignore (Harness.Driver.run ~balancer:b ~flows:[ f ] ~updates:[] ~horizon:30. ());
  List.iter (fun (t, _) -> check Alcotest.bool "within horizon" true (t < 30.)) !log;
  (* flows starting after the horizon produce nothing *)
  let b2, log2 = recording_balancer () in
  ignore
    (Harness.Driver.run ~balancer:b2 ~flows:[ flow ~id:2 ~start:50. ~duration:10. ]
       ~updates:[] ~horizon:30. ());
  check Alcotest.int "late flow skipped" 0 (List.length !log2)

let unstable_balancer_counted () =
  (* a balancer that flips DIP on every packet: every flow breaks *)
  let toggle = ref true in
  let b =
    {
      Lb.Balancer.name = "flipper";
      advance = (fun ~now:_ -> ());
      process =
        (fun ~now:_ _ ->
          toggle := not !toggle;
          { Lb.Balancer.dip = Some (dip (if !toggle then 1 else 2)); location = Lb.Balancer.Asic });
      update = (fun ~now:_ ~vip:_ _ -> ());
      connections = (fun () -> 0);
      metrics =
        (let reg = Telemetry.Registry.create () in
         fun () -> reg);
      disturb = (fun ~now:_ _ -> ());
    }
  in
  let flows = List.init 5 (fun i -> flow ~id:i ~start:1. ~duration:20.) in
  let r = Harness.Driver.run ~balancer:b ~flows ~updates:[] ~horizon:50. () in
  check Alcotest.int "all broken" 5 r.Harness.Driver.broken_connections;
  check (Alcotest.float 1e-9) "fraction" 1. r.Harness.Driver.broken_fraction

let traffic_attribution () =
  (* all packets at the SLB: slb fraction is 1 and latency is SLB-like *)
  let b =
    {
      Lb.Balancer.name = "slbish";
      advance = (fun ~now:_ -> ());
      process =
        (fun ~now:_ _ -> { Lb.Balancer.dip = Some (dip 1); location = Lb.Balancer.Slb });
      update = (fun ~now:_ ~vip:_ _ -> ());
      connections = (fun () -> 0);
      metrics =
        (let reg = Telemetry.Registry.create () in
         fun () -> reg);
      disturb = (fun ~now:_ _ -> ());
    }
  in
  let flows = List.init 20 (fun i -> flow ~id:i ~start:1. ~duration:60.) in
  let r = Harness.Driver.run ~balancer:b ~flows ~updates:[] ~horizon:120. () in
  check (Alcotest.float 1e-9) "all slb" 1. r.Harness.Driver.slb_traffic_fraction;
  check Alcotest.bool "slb-like latency" true
    (r.Harness.Driver.latency_median > 20e-6 && r.Harness.Driver.latency_median < 1e-3);
  check Alcotest.bool "p99 >= median" true
    (r.Harness.Driver.latency_p99 >= r.Harness.Driver.latency_median)

let update_delivery_order () =
  let seen = ref [] in
  let b =
    {
      Lb.Balancer.name = "u";
      advance = (fun ~now:_ -> ());
      process = (fun ~now:_ _ -> { Lb.Balancer.dip = Some (dip 1); location = Lb.Balancer.Asic });
      update = (fun ~now ~vip:_ _ -> seen := now :: !seen);
      connections = (fun () -> 0);
      metrics =
        (let reg = Telemetry.Registry.create () in
         fun () -> reg);
      disturb = (fun ~now:_ _ -> ());
    }
  in
  let updates =
    [ (5., vip, Lb.Balancer.Dip_add (dip 5)); (1., vip, Lb.Balancer.Dip_remove (dip 1));
      (3., vip, Lb.Balancer.Dip_add (dip 3)) ]
  in
  ignore (Harness.Driver.run ~balancer:b ~flows:[] ~updates ~horizon:10. ());
  check (Alcotest.list (Alcotest.float 1e-9)) "time order" [ 1.; 3.; 5. ] (List.rev !seen)

(* Golden digests of the driver's whole telemetry snapshot (PCC and
   packet counters, byte gauges, latency histograms, balancer and chaos
   metrics) on the chaos smoke operating point, seed 3. Any change to
   the packet schedule, the control tie order, the latency draws or the
   byte weighting shows up here. *)
let golden =
  [
    ("dip-mass-failure", "silkroad", "a0a52a76f4d4530b20273b20b0f77646");
    ("dip-mass-failure", "slb", "823643178061ef10fd39285d06dd99b9");
    ("dip-mass-failure", "duet", "cba788e128899b352a8eb4b94c76999c");
    ("dip-mass-failure", "ecmp", "8acf97dc52060b6309ea05f85edbc773");
    ("switch-failure", "silkroad", "eb33e40d098174483cd2d828395a245e");
    ("switch-failure", "slb", "6998c7385ceed7ee66fde74613958a7c");
    ("switch-failure", "duet", "fbf1a240f7e1f0d9f875129389c653e4");
    ("switch-failure", "ecmp", "1c9081642b25de07a0e1394aa866a98f");
  ]

let golden_case (scenario, balancer, digest) =
  tc (scenario ^ " " ^ balancer) `Quick (fun () ->
      let spec =
        Experiments.Chaos_runner.smoke_spec (Option.get (Chaos.Scenario.find scenario)) ~seed:3
      in
      let r, _ = Experiments.Chaos_runner.run spec ~balancer in
      check Alcotest.string "telemetry digest" digest
        (Digest.to_hex (Digest.string (Telemetry.Snapshot.to_json r.Harness.Driver.telemetry))))

let suites =
  [
    ( "harness.driver",
      [
        tc "probe train" `Quick probe_train_shape;
        tc "horizon truncation" `Quick horizon_truncates;
        tc "violations counted" `Quick unstable_balancer_counted;
        tc "traffic & latency attribution" `Quick traffic_attribution;
        tc "update ordering" `Quick update_delivery_order;
      ] );
    ("harness.driver_golden", List.map golden_case golden);
  ]

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

(* Replay.retired_dip and Replay.apply_to are the one definition of
   what a control does: which DIP it retires from the judge, and which
   balancer calls it makes, in order. *)
let control_semantics () =
  let calls = ref [] in
  let note fmt = Printf.ksprintf (fun s -> calls := s :: !calls) fmt in
  let b =
    {
      Lb.Balancer.name = "calls";
      advance = (fun ~now -> note "advance %g" now);
      process =
        (fun ~now pkt ->
          note "process %g %s len=%d" now
            (Format.asprintf "%a" Netcore.Tcp_flags.pp pkt.Netcore.Packet.flags)
            pkt.Netcore.Packet.payload_len;
          { Lb.Balancer.dip = None; location = Lb.Balancer.Asic });
      update =
        (fun ~now ~vip:_ u ->
          note "update %g %s" now (Format.asprintf "%a" Lb.Balancer.pp_update u));
      connections = (fun () -> 0);
      metrics =
        (let reg = Telemetry.Registry.create () in
         fun () -> reg);
      disturb =
        (fun ~now d ->
          match d with
          | Lb.Balancer.Cpu_backlog n -> note "backlog %g %d" now n
          | Lb.Balancer.Reroute r -> note "reroute %g salt=%d" now r.Lb.Balancer.rr_salt);
    }
  in
  let tuple = (flow ~id:0 ~start:0. ~duration:1.).Simnet.Flow.tuple in
  let syn = Format.asprintf "%a" Netcore.Tcp_flags.pp Netcore.Tcp_flags.syn in
  let reroute = { Lb.Balancer.rr_vip = None; rr_fraction = 0.5; rr_salt = 7 } in
  let upd u = Harness.Replay.Update (vip, u) in
  let cases =
    [
      (upd (Lb.Balancer.Dip_add (dip 1)), None, [ "advance 1"; "update 1 add 10.0.0.1:20" ]);
      ( upd (Lb.Balancer.Dip_remove (dip 2)),
        Some 2,
        [ "advance 1"; "update 1 remove 10.0.0.2:20" ] );
      ( upd (Lb.Balancer.Dip_replace { old_dip = dip 3; new_dip = dip 4 }),
        Some 3,
        [ "advance 1"; "update 1 replace 10.0.0.3:20 -> 10.0.0.4:20" ] );
      (Harness.Replay.Dip_dead (dip 5), Some 5, []);
      (Harness.Replay.Cpu_backlog 9, None, [ "advance 1"; "backlog 1 9" ]);
      (Harness.Replay.Attack_syn tuple, None, [ "advance 1"; "process 1 " ^ syn ^ " len=0" ]);
      (Harness.Replay.Reroute reroute, None, [ "advance 1"; "reroute 1 salt=7" ]);
    ]
  in
  List.iter
    (fun (ctrl, retired, expected) ->
      check
        (Alcotest.option Alcotest.string)
        "retired DIP"
        (Option.map (fun i -> Netcore.Endpoint.to_string (dip i)) retired)
        (Option.map Netcore.Endpoint.to_string (Harness.Replay.retired_dip ctrl));
      calls := [];
      Harness.Replay.apply_to b ~at:1. ctrl;
      check (Alcotest.list Alcotest.string) "balancer calls" expected (List.rev !calls))
    cases

(* Golden digests of the driver's whole telemetry snapshot (PCC and
   packet counters, byte gauges, latency histograms, balancer and chaos
   metrics) on the chaos smoke operating point, seed 3, for every chaos
   scenario and balancer. Any change to the packet schedule, the control
   tie order, the control semantics, the judge, the latency draws or the
   byte weighting shows up here. *)
let golden =
  [
    ("quiet", "silkroad", "2dbe2920a52a52cee7fe33996282b44c");
    ("quiet", "slb", "ed51c984429661b947fa4b83ca6dc7f0");
    ("quiet", "duet", "42d792f5c5da02409d48647c2641b580");
    ("quiet", "ecmp", "9d0c0a86ce7ef65dfd571445ac7e0723");
    ("dip-mass-failure", "silkroad", "a0a52a76f4d4530b20273b20b0f77646");
    ("dip-mass-failure", "slb", "823643178061ef10fd39285d06dd99b9");
    ("dip-mass-failure", "duet", "cba788e128899b352a8eb4b94c76999c");
    ("dip-mass-failure", "ecmp", "8acf97dc52060b6309ea05f85edbc773");
    ("dip-flap", "silkroad", "01e0c533a12fc048dba2c588cdcb53c3");
    ("dip-flap", "slb", "d78cfaf4ad519b896e794f5767f19405");
    ("dip-flap", "duet", "bb3a44b96cd510eaf2962120c02037bb");
    ("dip-flap", "ecmp", "638549752dce34401ffbb8b99358832b");
    ("cpu-stall", "silkroad", "6b73b68136f69a047eef3a6eb71d6205");
    ("cpu-stall", "slb", "937cdf54b29a1b3c8a81cead3ed54e89");
    ("cpu-stall", "duet", "b03f00e2b0b7121e7d4c087130cd1ae0");
    ("cpu-stall", "ecmp", "043052fafb07e2f86d2e689e5afab4c1");
    ("control-partition", "silkroad", "a2f21dffaa0759b4221f3cc5b39cdf07");
    ("control-partition", "slb", "62dab63f4fb0a935bdf52f2c04b3031b");
    ("control-partition", "duet", "c3f6551bfd463224b222ad63d5bd4dc4");
    ("control-partition", "ecmp", "62a6873106df3a449228dacfadff45f2");
    ("syn-flood", "silkroad", "5e54948d00d5a66bdc3681ea41b3e76f");
    ("syn-flood", "slb", "1acf47c07aacd763c1bbe9a038f8090e");
    ("syn-flood", "duet", "39e47d4059da0cd26cf471ab64ceb829");
    ("syn-flood", "ecmp", "4792f20794d120202f5b2ad4a2901828");
    ("update-storm", "silkroad", "e5d64cd58b11c07bce8b076cd3ce6441");
    ("update-storm", "slb", "d8416cadd225cb9710e6da1243041784");
    ("update-storm", "duet", "1a98ef133190a4253e9ebcde300e91a6");
    ("update-storm", "ecmp", "cd7795282a12585a6f69a5b6df8c8f47");
    ("switch-failure", "silkroad", "eb33e40d098174483cd2d828395a245e");
    ("switch-failure", "slb", "6998c7385ceed7ee66fde74613958a7c");
    ("switch-failure", "duet", "fbf1a240f7e1f0d9f875129389c653e4");
    ("switch-failure", "ecmp", "1c9081642b25de07a0e1394aa866a98f");
    ("vip-migration", "silkroad", "ff519c2b5525cbf4a8fe568281e31405");
    ("vip-migration", "slb", "b198e58b2df88f946ab64d43cb2bf7d3");
    ("vip-migration", "duet", "a9da3a4fc9d749d65855cc6bf6e06be8");
    ("vip-migration", "ecmp", "e0cdd89673b96426ab0e897f813cbfd7");
  ]

(* Packed_trace sorts packets with a stable sort on time alone. It must
   give the permutation the (time, index) comparator gives; times are
   drawn from a handful of values so that most of them tie. *)
let qcheck_time_order_stable =
  QCheck.Test.make ~name:"time order == sort by (time, index)" ~count:300
    QCheck.(pair (int_range 1 6) (list_of_size (Gen.int_range 0 200) (int_bound 1000)))
    (fun (distinct, draws) ->
      let times = Array.of_list (List.map (fun d -> float_of_int (d mod distinct) *. 0.25) draws) in
      let reference = Array.init (Array.length times) (fun i -> i) in
      Array.sort
        (fun a b ->
          match Float.compare times.(a) times.(b) with 0 -> Int.compare a b | c -> c)
        reference;
      Harness.Packed_trace.time_order times = reference)

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
        tc "control semantics" `Quick control_semantics;
      ] );
    ("harness.packed_trace", [ QCheck_alcotest.to_alcotest qcheck_time_order_stable ]);
    ("harness.driver_golden", List.map golden_case golden);
  ]

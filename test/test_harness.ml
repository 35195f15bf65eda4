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
  let r =
    Harness.Driver.run ~balancer:b
      ~trace:(Harness.Packed_trace.compile ~horizon:100. [ f ]) ~updates:[] ()
  in
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
  ignore
    (Harness.Driver.run ~balancer:b
       ~trace:(Harness.Packed_trace.compile ~horizon:30. [ f ])
       ~updates:[] ());
  List.iter (fun (t, _) -> check Alcotest.bool "within horizon" true (t < 30.)) !log;
  (* flows starting after the horizon produce nothing *)
  let b2, log2 = recording_balancer () in
  ignore
    (Harness.Driver.run ~balancer:b2
       ~trace:
         (Harness.Packed_trace.compile ~horizon:30. [ flow ~id:2 ~start:50. ~duration:10. ])
       ~updates:[] ());
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
  let r =
    Harness.Driver.run ~balancer:b
      ~trace:(Harness.Packed_trace.compile ~horizon:50. flows) ~updates:[] ()
  in
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
  let r =
    Harness.Driver.run ~balancer:b
      ~trace:(Harness.Packed_trace.compile ~horizon:120. flows) ~updates:[] ()
  in
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
  ignore
    (Harness.Driver.run ~balancer:b
       ~trace:(Harness.Packed_trace.compile ~horizon:10. [])
       ~updates ());
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
          note "process %g flags=%d len=%d" now
            (Netcore.Tcp_flags.to_byte pkt.Netcore.Packet.flags)
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
  let syn = Netcore.Tcp_flags.to_byte Netcore.Tcp_flags.syn in
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
      (Harness.Replay.Attack_syn tuple, None, [ "advance 1"; Printf.sprintf "process 1 flags=%d len=0" syn ]);
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

(* ---------- Packed_trace ---------- *)

(* the early offsets Packed_trace.compile probes at by default *)
let default_early = [ 250e-6; 1e-3; 5e-3; 20e-3; 0.1 ]

(* The reference compile: each flow's train built as a list of
   (time, flags) pairs, packets sorted by a comparison stable sort on
   time. Packed_trace.compile must give the very same arrays. *)
module Reference = struct
  let probe_points ~early_offsets ~probe_interval ~horizon (flow : Simnet.Flow.t) =
    let start = flow.Simnet.Flow.start in
    let finish = Float.min (Simnet.Flow.finish flow) horizon in
    if start >= horizon then []
    else begin
      let times = ref [] in
      List.iter
        (fun off ->
          let at = start +. off in
          if at < finish then times := at :: !times)
        early_offsets;
      let rec steady at =
        if at < finish then begin
          times := at :: !times;
          steady (at +. probe_interval)
        end
      in
      steady (start +. probe_interval);
      let times = List.sort_uniq Float.compare !times in
      let pts =
        (start, Netcore.Tcp_flags.syn) :: List.map (fun at -> (at, Netcore.Tcp_flags.data)) times
      in
      if Simnet.Flow.finish flow < horizon then
        pts @ [ (Simnet.Flow.finish flow, Netcore.Tcp_flags.fin) ]
      else pts
    end

  let time_order times =
    let order = Array.init (Array.length times) (fun i -> i) in
    Array.stable_sort (fun a b -> Float.compare times.(a) times.(b)) order;
    order

  let compile ~early_offsets ~probe_interval ~horizon flows =
    let kept =
      List.filter_map
        (fun f ->
          match probe_points ~early_offsets ~probe_interval ~horizon f with
          | [] -> None
          | pts -> Some (f, pts))
        flows
    in
    let n_flows = List.length kept in
    let vip_index = Hashtbl.create 16 in
    let vips_rev = ref [] in
    let n_vips = ref 0 in
    let vip_idx vip =
      match Hashtbl.find_opt vip_index vip with
      | Some i -> i
      | None ->
        let i = !n_vips in
        Hashtbl.replace vip_index vip i;
        vips_rev := vip :: !vips_rev;
        incr n_vips;
        i
    in
    let flow_ids = Array.make n_flows 0 in
    let flow_vip = Array.make n_flows 0 in
    let flow_tuples =
      Array.make n_flows
        (Netcore.Five_tuple.make ~src:Netcore.Endpoint.none ~dst:Netcore.Endpoint.none
           ~proto:Netcore.Protocol.Tcp)
    in
    let flow_rate = Array.make n_flows 0. in
    let total = List.fold_left (fun acc (_, pts) -> acc + List.length pts) 0 kept in
    let raw_times = Array.make total 0. in
    let raw_flow = Array.make total 0 in
    let raw_flags = Bytes.create total in
    let p = ref 0 in
    List.iteri
      (fun fi ((flow : Simnet.Flow.t), pts) ->
        flow_ids.(fi) <- flow.Simnet.Flow.id;
        flow_tuples.(fi) <- flow.Simnet.Flow.tuple;
        flow_rate.(fi) <- flow.Simnet.Flow.bytes_per_sec;
        flow_vip.(fi) <- vip_idx flow.Simnet.Flow.tuple.Netcore.Five_tuple.dst;
        List.iter
          (fun (at, flags) ->
            raw_times.(!p) <- at;
            raw_flow.(!p) <- fi;
            Bytes.set raw_flags !p (Char.chr (Netcore.Tcp_flags.to_byte flags));
            incr p)
          pts)
      kept;
    let order = time_order raw_times in
    let times = Array.make total 0. in
    let pkt_flow = Array.make total 0 in
    let pkt_flags = Bytes.create total in
    Array.iteri
      (fun i src ->
        times.(i) <- raw_times.(src);
        pkt_flow.(i) <- raw_flow.(src);
        Bytes.set pkt_flags i (Bytes.get raw_flags src))
      order;
    {
      Harness.Packed_trace.horizon;
      vips = Array.of_list (List.rev !vips_rev);
      flow_ids;
      flow_vip;
      flow_tuples;
      flow_rate;
      times;
      pkt_flow;
      pkt_flags;
    }
end

let bits x = Int64.bits_of_float x

let same_trace (a : Harness.Packed_trace.t) (b : Harness.Packed_trace.t) =
  let open Harness.Packed_trace in
  bits a.horizon = bits b.horizon
  && Array.length a.vips = Array.length b.vips
  && Array.for_all2 Netcore.Endpoint.equal a.vips b.vips
  && a.flow_ids = b.flow_ids && a.flow_vip = b.flow_vip
  && Array.length a.flow_tuples = Array.length b.flow_tuples
  && Array.for_all2 Netcore.Five_tuple.equal a.flow_tuples b.flow_tuples
  && Array.map bits a.flow_rate = Array.map bits b.flow_rate
  && Array.map bits a.times = Array.map bits b.times
  && a.pkt_flow = b.pkt_flow && Bytes.equal a.pkt_flags b.pkt_flags

(* Random compile inputs built to hit the edges of the train merge:
   equal starts, start 0 (and -0.0, whose bits the times keep), starts
   at or after the horizon, finishes exactly at the horizon, zero
   durations, early offsets unsorted, duplicated or equal to
   steady-probe offsets, and probe intervals from 1e-6 s up. The
   horizon is a bounded number of intervals, so no flow has more than
   ~64 steady probes. *)
let gen_compile_input =
  let open QCheck.Gen in
  let* probe_interval = oneofl [ 1e-6; 1e-3; 0.1; 0.25; 1.; 15. ] in
  let* horizon = map (fun k -> float_of_int k *. probe_interval) (int_range 0 64) in
  let* early_offsets =
    list_size (int_range 0 6)
      (frequency
         [
           (2, map (fun k -> float_of_int k *. probe_interval) (int_range 1 4));
           (2, oneofl default_early);
           (3, map (fun x -> (x +. 1e-9) *. probe_interval) (float_bound_inclusive 3.));
         ])
  in
  let* n_vips = int_range 1 3 in
  let vip i = Netcore.Endpoint.v4 20 0 0 (1 + i) 80 in
  let* starts_pool = list_size (int_range 1 4) (float_bound_inclusive (horizon *. 1.2)) in
  let start =
    frequency
      [
        (1, oneofl [ 0.; -0. ]);
        (1, return horizon);
        (1, map (fun d -> horizon +. d) (float_bound_inclusive 5.));
        (3, oneofl starts_pool);
        (3, float_bound_inclusive (Float.max horizon 1e-3));
        (1, map (fun k -> float_of_int k *. probe_interval) (int_range 0 64));
      ]
  in
  let* flows =
    list_size (int_range 0 30)
      (let* start = start in
       let* duration =
         frequency
           [
             (1, oneofl [ 0.; -0. ]);
             (1, return (Float.max 0. (horizon -. start)));
             (1, map (fun k -> float_of_int k *. probe_interval) (int_range 0 8));
             (3, float_bound_inclusive (horizon *. 1.5));
           ]
       in
       let* v = int_bound (n_vips - 1) in
       let* port = int_range 1 60000 in
       return (start, duration, v, port))
  in
  let flows =
    List.mapi
      (fun id (start, duration, v, port) ->
        {
          Simnet.Flow.id;
          tuple =
            Netcore.Five_tuple.make
              ~src:(Netcore.Endpoint.v4 1 2 3 4 port)
              ~dst:(vip v) ~proto:Netcore.Protocol.Tcp;
          start;
          duration;
          bytes_per_sec = 1000.;
        })
      flows
  in
  return (early_offsets, probe_interval, horizon, flows)

let print_compile_input (early_offsets, probe_interval, horizon, flows) =
  Printf.sprintf "early=[%s] probe_interval=%h horizon=%h flows=[%s]"
    (String.concat "; " (List.map (Printf.sprintf "%h") early_offsets))
    probe_interval horizon
    (String.concat "; "
       (List.map
          (fun f ->
            Printf.sprintf "%d: %h+%h -> %s" f.Simnet.Flow.id f.Simnet.Flow.start
              f.Simnet.Flow.duration
              (Netcore.Endpoint.to_string f.Simnet.Flow.tuple.Netcore.Five_tuple.dst))
          flows))

(* Schedules aimed at each branch of compile's bucket sort: every flow
   starting at one instant (one bucket of equal times), a dense cluster
   of distinct starts inside one coarse bucket plus one far outlier
   (the cluster's fine bucket is over the insertion sort's limit and
   takes the radix fallback), -0.0 and +0.0 starts that tie, one flow,
   no flows, and flows that end far past the horizon. *)
let gen_sort_edge_input =
  let open QCheck.Gen in
  let* early_offsets = oneofl [ []; default_early ] in
  let* durations = array_size (int_range 1 300) (float_bound_inclusive 2.) in
  let* shape = int_bound 5 in
  let n = Array.length durations in
  let* order = shuffle_l (List.init n Fun.id) in
  let* probe_interval, horizon, starts =
    match shape with
    | 0 ->
      let* at = oneofl [ 0.; 5.; 17.25 ] in
      return (1., 20., List.map (fun _ -> at) order)
    | 1 ->
      (* distinct starts 1e-12 apart, then one flow 1e6 s later *)
      let cluster = List.map (fun k -> 1. +. (float_of_int k *. 1e-12)) order in
      return (1e5, 1e6 +. 10., List.rev (1e6 :: List.tl (List.rev cluster)))
    | 2 -> return (0.5, 10., List.map (fun k -> if k mod 2 = 0 then 0. else -0.) order)
    | 3 -> return (1., 10., [ 3. ])
    | 4 -> return (1., 10., [])
    | _ -> return (1., 30., List.map (fun k -> float_of_int (k mod 25)) order)
  in
  let far = shape = 5 in
  let flows =
    List.mapi
      (fun id start ->
        let duration = durations.(id) in
        {
          Simnet.Flow.id;
          tuple =
            Netcore.Five_tuple.make
              ~src:(Netcore.Endpoint.v4 1 2 3 4 (1000 + id))
              ~dst:(Netcore.Endpoint.v4 20 0 0 (1 + (id mod 3)) 80)
              ~proto:Netcore.Protocol.Tcp;
          start;
          duration = (if far then duration *. 1e9 else duration);
          bytes_per_sec = float_of_int id;
        })
      starts
  in
  return (early_offsets, probe_interval, horizon, flows)

let qcheck_compile_is_reference =
  QCheck.Test.make ~name:"compile == list-and-stable-sort reference" ~count:700
    (QCheck.make ~print:print_compile_input
       QCheck.Gen.(frequency [ (5, gen_compile_input); (2, gen_sort_edge_input) ]))
    (fun (early_offsets, probe_interval, horizon, flows) ->
      same_trace
        (Harness.Packed_trace.compile ~early_offsets ~probe_interval ~horizon flows)
        (Reference.compile ~early_offsets ~probe_interval ~horizon flows))

(* What compile allocates, per packet, on a netwide-shaped schedule (the
   perfbench netwide-failover shape at 2,000 flows: starts over 25 s,
   0.5-60.5 s lifetimes, one probe a second): the three output arrays
   (8 + 8 + 1 bytes a packet), the flow arrays and one bucket's
   scratch. The six-pass radix sort with its key and payload scratch
   arrays read 43.9. *)
let compile_bytes_per_packet = 22.

let compile_allocation () =
  let vips = Experiments.Common.vips_of ~n_vips:4 ~dips_per_vip:8 in
  let flows = Experiments.Common.fabric_flows ~seed:7011 ~n:2000 ~span:25. vips in
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  let t = Harness.Packed_trace.compile ~probe_interval:1. ~horizon:120. flows in
  let per_packet =
    (Gc.allocated_bytes () -. before) /. float_of_int (Harness.Packed_trace.n_packets t)
  in
  check Alcotest.bool
    (Printf.sprintf "compile: %.2f bytes a packet (%d packets)" per_packet
       (Harness.Packed_trace.n_packets t))
    true
    (per_packet <= compile_bytes_per_packet)

(* The default early offsets and interval over a generated workload. *)
let compile_workload_is_reference () =
  let s =
    Experiments.Common.scenario ~seed:5 ~conns_per_sec_per_vip:40. ~updates_per_min:0.
      ~trace_seconds:60. ()
  in
  let horizon = s.Experiments.Common.horizon and flows = s.Experiments.Common.flows in
  check Alcotest.bool "identical arrays" true
    (same_trace
       (Harness.Packed_trace.compile ~horizon flows)
       (Reference.compile ~early_offsets:default_early ~probe_interval:15.
          ~horizon flows))

let raises_invalid f =
  match f () with
  | _ -> false
  | exception Invalid_argument _ -> true

let compile_contract () =
  let ok = flow ~id:1 ~start:1. ~duration:10. in
  let compile ?early_offsets ?probe_interval flows () =
    Harness.Packed_trace.compile ?early_offsets ?probe_interval ~horizon:100. flows
  in
  List.iter
    (fun (what, f) -> check Alcotest.bool what true (raises_invalid f))
    [
      ("probe_interval 0", compile ~probe_interval:0. [ ok ]);
      ("probe_interval < 0", compile ~probe_interval:(-1.) [ ok ]);
      ("probe_interval nan", compile ~probe_interval:Float.nan [ ok ]);
      ("probe_interval inf", compile ~probe_interval:Float.infinity [ ok ]);
      ("early offset 0", compile ~early_offsets:[ 1e-3; 0. ] [ ok ]);
      ("early offset < 0", compile ~early_offsets:[ -1e-3 ] [ ok ]);
      ("early offset nan", compile ~early_offsets:[ Float.nan ] [ ok ]);
      ("early offset inf", compile ~early_offsets:[ Float.infinity ] [ ok ]);
      ("start < 0", compile [ ok; flow ~id:2 ~start:(-1.) ~duration:1. ]);
      ("start nan", compile [ flow ~id:2 ~start:Float.nan ~duration:1. ]);
      ("start inf", compile [ flow ~id:2 ~start:Float.infinity ~duration:1. ]);
      ("duration < 0", compile [ flow ~id:2 ~start:1. ~duration:(-1.) ]);
      ("duration nan", compile [ flow ~id:2 ~start:1. ~duration:Float.nan ]);
      ("duration inf", compile [ flow ~id:2 ~start:1. ~duration:Float.infinity ]);
      (* 1e17 +. 1e-3 = 1e17: the steady chain would never pass the end *)
      ( "steady chain stalls",
        fun () ->
          Harness.Packed_trace.compile ~probe_interval:1e-3 ~horizon:2e17
            [ flow ~id:2 ~start:1e17 ~duration:1000. ] );
      (* finite, but ~7e13 steady probes: refused before the chain is walked *)
      ( "duration 1e15",
        fun () ->
          Harness.Packed_trace.compile ~horizon:2e15 [ flow ~id:2 ~start:0. ~duration:1e15 ] );
      (* ~1e8 probes each, ~5e10 together: refused before any chain is walked *)
      ( "many flows past 2^32 packets together",
        compile ~probe_interval:1e-6
          (List.init 500 (fun i -> flow ~id:i ~start:0. ~duration:99.)) );
    ];
  (* the boundaries themselves are accepted *)
  let t = compile [ flow ~id:2 ~start:0. ~duration:0. ] () in
  check Alcotest.int "start 0, duration 0: SYN and FIN" 2 (Harness.Packed_trace.n_packets t)

(* Packed_trace orders packets by a stable radix sort on time alone. It
   must give the permutation the (time, index) comparator gives. Times
   come from a pool of values spread over every exponent (random bit
   patterns), with 0.0, -0.0 (which ties with 0.0), subnormals and
   max_float, so every radix digit varies; a small pool forces ties. *)
let gen_time =
  let open QCheck.Gen in
  frequency
    [
      ( 6,
        map
          (fun b ->
            Int64.float_of_bits
              (Int64.rem (Int64.logand b Int64.max_int) 0x7FF0_0000_0000_0000L))
          ui64 );
      (1, map (fun b -> Int64.float_of_bits (Int64.logand b 0x000F_FFFF_FFFF_FFFFL)) ui64);
      (1, oneofl [ 0.; -0.; Float.max_float; Float.min_float; 4.9e-324 ]);
      (2, map (fun k -> float_of_int k *. 0.25) (int_bound 1000));
    ]

let qcheck_time_order_stable =
  QCheck.Test.make ~name:"time order == sort by (time, index)" ~count:300
    QCheck.(
      make
        Gen.(
          let* pool = array_size (int_range 1 300) gen_time in
          array_size (int_range 0 3000) (map (fun i -> pool.(i mod Array.length pool)) nat)))
    (fun times ->
      let reference = Array.init (Array.length times) (fun i -> i) in
      Array.sort
        (fun a b -> match Float.compare times.(a) times.(b) with 0 -> Int.compare a b | c -> c)
        reference;
      Harness.Packed_trace.time_order times = reference)

let time_order_rejects () =
  List.iter
    (fun x ->
      check Alcotest.bool (Printf.sprintf "%h" x) true
        (raises_invalid (fun () -> Harness.Packed_trace.time_order [| 1.; x; 2. |])))
    [ -1.; -4.9e-324; Float.neg_infinity; Float.infinity; Float.nan ]

let golden_case (scenario, balancer, digest) =
  tc (scenario ^ " " ^ balancer) `Quick (fun () ->
      let spec =
        Experiments.Chaos_runner.smoke_spec (Option.get (Chaos.Scenario.find scenario)) ~seed:3
      in
      let r, _ = Experiments.Chaos_runner.run spec ~balancer in
      check Alcotest.string "telemetry digest" digest
        (Digest.to_hex (Digest.string (Telemetry.Snapshot.to_json r.Harness.Driver.telemetry))))

(* The stepper reports each judgement that counted a violation, and the
   driver attributes it to the chaos fault window: the injector's total
   equals the driver's violation count, and its per-fault split sums to
   the same total. *)
let violations_attributed () =
  let spec =
    Experiments.Chaos_runner.smoke_spec (Option.get (Chaos.Scenario.find "dip-flap")) ~seed:3
  in
  let r, _ = Experiments.Chaos_runner.run spec ~balancer:"ecmp" in
  let counter (item : Telemetry.Snapshot.item) =
    match item.Telemetry.Snapshot.value with Telemetry.Snapshot.Counter n -> n | _ -> 0
  in
  let items =
    List.filter
      (fun (i : Telemetry.Snapshot.item) -> i.Telemetry.Snapshot.name = "chaos.violations")
      r.Harness.Driver.telemetry
  in
  let total, split =
    List.partition (fun (i : Telemetry.Snapshot.item) -> i.Telemetry.Snapshot.labels = []) items
  in
  check Alcotest.bool "the run has violations" true (r.Harness.Driver.violation_packets > 0);
  check Alcotest.int "attributed total" r.Harness.Driver.violation_packets
    (List.fold_left (fun acc i -> acc + counter i) 0 total);
  check Alcotest.int "per-fault split" r.Harness.Driver.violation_packets
    (List.fold_left (fun acc i -> acc + counter i) 0 split)

let suites =
  [
    ( "harness.driver",
      [
        tc "probe train" `Quick probe_train_shape;
        tc "horizon truncation" `Quick horizon_truncates;
        tc "violations counted" `Quick unstable_balancer_counted;
        tc "violations attributed to chaos" `Quick violations_attributed;
        tc "traffic & latency attribution" `Quick traffic_attribution;
        tc "update ordering" `Quick update_delivery_order;
        tc "control semantics" `Quick control_semantics;
      ] );
    ( "harness.packed_trace",
      [
        QCheck_alcotest.to_alcotest qcheck_time_order_stable;
        tc "time order rejects negative and non-finite" `Quick time_order_rejects;
        QCheck_alcotest.to_alcotest qcheck_compile_is_reference;
        tc "workload compile == reference" `Quick compile_workload_is_reference;
        tc "compile allocation per packet" `Quick compile_allocation;
        tc "input contract" `Quick compile_contract;
      ] );
    ("harness.driver_golden", List.map golden_case golden);
  ]

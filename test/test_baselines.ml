(* Tests for the baseline balancers: stateless ECMP, the software LB,
   Maglev hashing, and Duet. *)

let check = Alcotest.check
let tc = Alcotest.test_case

let dip i = Netcore.Endpoint.v4 10 0 0 i 20
let vip = Netcore.Endpoint.v4 20 0 0 1 80
let pool n = Lb.Dip_pool.of_list (List.init n (fun i -> dip (i + 1)))

let flow i =
  Netcore.Five_tuple.make
    ~src:(Netcore.Endpoint.v4 1 2 3 ((i / 60000) + 1) (1 + (i mod 60000)))
    ~dst:vip ~proto:Netcore.Protocol.Tcp

let syn i = Netcore.Packet.syn (flow i)
let data i = Netcore.Packet.data (flow i)
let fin i = Netcore.Packet.make ~flags:Netcore.Tcp_flags.fin ~payload_len:0 (flow i)

(* ---------- Ecmp_lb ---------- *)

let ecmp_stateless_consistency () =
  let b = Baselines.Ecmp_lb.create_with ~seed:1 [ (vip, pool 4) ] in
  let o1 = b.Lb.Balancer.process ~now:0. (syn 1) in
  let o2 = b.Lb.Balancer.process ~now:1. (data 1) in
  check Alcotest.bool "stable without updates" true (o1.Lb.Balancer.dip = o2.Lb.Balancer.dip);
  check Alcotest.bool "asic path" true (o1.Lb.Balancer.location = Lb.Balancer.Asic);
  check Alcotest.int "no state" 0 (b.Lb.Balancer.connections ())

let ecmp_breaks_on_update () =
  let b = Baselines.Ecmp_lb.create_with ~seed:1 [ (vip, pool 8) ] in
  let before = List.init 200 (fun i -> (i, (b.Lb.Balancer.process ~now:0. (syn i)).Lb.Balancer.dip)) in
  b.Lb.Balancer.update ~now:1. ~vip (Lb.Balancer.Dip_remove (dip 1));
  let moved =
    List.length
      (List.filter
         (fun (i, d) -> (b.Lb.Balancer.process ~now:2. (data i)).Lb.Balancer.dip <> d)
         before)
  in
  (* mod-8 -> mod-7 rehash moves most flows *)
  check Alcotest.bool (Printf.sprintf "%d moved > 50" moved) true (moved > 50)

let ecmp_unknown_vip_drops () =
  let b = Baselines.Ecmp_lb.create_with ~seed:1 [] in
  let o = b.Lb.Balancer.process ~now:0. (syn 1) in
  check Alcotest.bool "dropped" true (o.Lb.Balancer.dip = None)

(* ---------- Slb ---------- *)

let slb_pcc_across_updates () =
  let b, stats = Baselines.Slb.create ~seed:1 ~vips:[ (vip, pool 8) ] () in
  let assigned = List.init 100 (fun i -> (i, (b.Lb.Balancer.process ~now:0. (syn i)).Lb.Balancer.dip)) in
  b.Lb.Balancer.update ~now:1. ~vip (Lb.Balancer.Dip_remove (dip 1));
  b.Lb.Balancer.update ~now:1. ~vip (Lb.Balancer.Dip_add (dip 9));
  List.iter
    (fun (i, d) ->
      let o = b.Lb.Balancer.process ~now:2. (data i) in
      check Alcotest.bool "pinned" true (o.Lb.Balancer.dip = d))
    assigned;
  check Alcotest.int "conn table" 100 (b.Lb.Balancer.connections ());
  let s = stats () in
  check Alcotest.int "packets counted" 200 s.Baselines.Slb.packets;
  check Alcotest.int "conns created" 100 s.Baselines.Slb.connections_created

let slb_fin_removes () =
  let b, _ = Baselines.Slb.create ~seed:1 ~vips:[ (vip, pool 4) ] () in
  ignore (b.Lb.Balancer.process ~now:0. (syn 1));
  check Alcotest.int "one" 1 (b.Lb.Balancer.connections ());
  ignore (b.Lb.Balancer.process ~now:1. (fin 1));
  check Alcotest.int "zero" 0 (b.Lb.Balancer.connections ())

let slb_new_conns_use_new_pool () =
  let b, _ = Baselines.Slb.create ~seed:1 ~vips:[ (vip, Lb.Dip_pool.of_list [ dip 1 ]) ] () in
  b.Lb.Balancer.update ~now:0. ~vip (Lb.Balancer.Dip_remove (dip 1));
  b.Lb.Balancer.update ~now:0. ~vip (Lb.Balancer.Dip_add (dip 2));
  let o = b.Lb.Balancer.process ~now:1. (syn 1) in
  check Alcotest.bool "new pool" true (o.Lb.Balancer.dip = Some (dip 2))

let slb_capacity_overload () =
  let b, stats = Baselines.Slb.create ~seed:1 ~capacity_pps:100. ~vips:[ (vip, pool 4) ] () in
  (* a burst far beyond 100 pps: most packets are shed *)
  let dropped = ref 0 in
  for i = 0 to 499 do
    if (b.Lb.Balancer.process ~now:0.001 (syn i)).Lb.Balancer.dip = None then incr dropped
  done;
  check Alcotest.bool (Printf.sprintf "%d dropped" !dropped) true (!dropped > 400);
  check Alcotest.bool "counted" true ((stats ()).Baselines.Slb.overload_drops > 400);
  (* after a second of quiet, capacity recovers *)
  let o = b.Lb.Balancer.process ~now:2. (syn 9999) in
  check Alcotest.bool "recovers" true (o.Lb.Balancer.dip <> None)

(* ---------- Maglev ---------- *)

let maglev_balanced () =
  let backends = List.init 8 (fun i -> dip (i + 1)) in
  let t = Baselines.Maglev_hash.create backends in
  List.iter
    (fun b ->
      let share =
        float_of_int (Baselines.Maglev_hash.entries_of t b)
        /. float_of_int (Baselines.Maglev_hash.table_size t)
      in
      check Alcotest.bool
        (Printf.sprintf "share %.4f within 1%% of 1/8" share)
        true
        (abs_float (share -. 0.125) < 0.01 *. 0.125 +. 0.002))
    backends

let maglev_low_disruption () =
  let backends = List.init 8 (fun i -> dip (i + 1)) in
  let t = Baselines.Maglev_hash.create backends in
  let t' = Baselines.Maglev_hash.create (List.tl backends) in
  let d = Baselines.Maglev_hash.disruption t t' in
  (* removing 1 of 8 backends must remap its 1/8 share, and maglev adds
     only a small extra disruption on top *)
  check Alcotest.bool (Printf.sprintf "disruption %.3f < 0.3" d) true (d < 0.3);
  check Alcotest.bool "at least the removed share" true (d >= 0.125 -. 0.01)

let maglev_rejects_bad_args () =
  Alcotest.check_raises "empty" (Invalid_argument "Maglev_hash.create: no backends") (fun () ->
      ignore (Baselines.Maglev_hash.create []))

let maglev_lookup_members () =
  let backends = List.init 5 (fun i -> dip (i + 1)) in
  let t = Baselines.Maglev_hash.create backends in
  for i = 0 to 500 do
    let h = Netcore.Hashing.seeded ~seed:7 (Int64.of_int i) in
    let b = Baselines.Maglev_hash.lookup t h in
    check Alcotest.bool "is member" true (List.exists (Netcore.Endpoint.equal b) backends)
  done

(* ---------- Duet ---------- *)

let duet_switch_path_idle () =
  let b, stats = Baselines.Duet.create ~seed:1 ~policy:(Baselines.Duet.Migrate_every 600.) ~vips:[ (vip, pool 4) ] () in
  let o = b.Lb.Balancer.process ~now:0. (syn 1) in
  check Alcotest.bool "asic when idle" true (o.Lb.Balancer.location = Lb.Balancer.Asic);
  let s = stats () in
  check Alcotest.int "switch packet" 1 s.Baselines.Duet.switch_packets

let duet_redirects_on_update () =
  let b, stats = Baselines.Duet.create ~seed:1 ~policy:(Baselines.Duet.Migrate_every 600.) ~vips:[ (vip, pool 4) ] () in
  b.Lb.Balancer.update ~now:10. ~vip (Lb.Balancer.Dip_add (dip 9));
  let o = b.Lb.Balancer.process ~now:10.1 (syn 1) in
  check Alcotest.bool "slb during update" true (o.Lb.Balancer.location = Lb.Balancer.Slb);
  let s = stats () in
  check Alcotest.int "slb packet" 1 s.Baselines.Duet.slb_packets

let duet_migrates_back () =
  let b, stats = Baselines.Duet.create ~seed:1 ~policy:(Baselines.Duet.Migrate_every 60.) ~vips:[ (vip, pool 4) ] () in
  b.Lb.Balancer.update ~now:10. ~vip (Lb.Balancer.Dip_add (dip 9));
  b.Lb.Balancer.advance ~now:90.;
  let o = b.Lb.Balancer.process ~now:90. (syn 1) in
  check Alcotest.bool "back at switch" true (o.Lb.Balancer.location = Lb.Balancer.Asic);
  check Alcotest.int "migrated once" 1 (stats ()).Baselines.Duet.migrations;
  (* the new pool is live at the switch *)
  let hits = ref false in
  for i = 0 to 200 do
    if (b.Lb.Balancer.process ~now:91. (syn (100 + i))).Lb.Balancer.dip = Some (dip 9) then
      hits := true
  done;
  check Alcotest.bool "new dip reachable" true !hits

let duet_slb_keeps_pcc_during_redirect () =
  let b, _ = Baselines.Duet.create ~seed:1 ~policy:(Baselines.Duet.Migrate_every 600.) ~vips:[ (vip, pool 8) ] () in
  (* flows established at the switch *)
  let flows = List.init 50 (fun i -> (i, (b.Lb.Balancer.process ~now:0. (syn i)).Lb.Balancer.dip)) in
  (* they keep a packet flowing during the 30 s grace window *)
  b.Lb.Balancer.update ~now:10. ~vip (Lb.Balancer.Dip_remove (dip 8));
  List.iter (fun (i, _) -> ignore (b.Lb.Balancer.process ~now:10.5 (data i))) flows;
  (* after execution at 40 s, snooped connections stay pinned *)
  List.iter
    (fun (i, d) ->
      let o = b.Lb.Balancer.process ~now:42. (data i) in
      check Alcotest.bool "pinned at slb" true (o.Lb.Balancer.dip = d))
    flows

let duet_pcc_policy_waits () =
  let b, stats = Baselines.Duet.create ~seed:1 ~policy:Baselines.Duet.Migrate_pcc ~vips:[ (vip, pool 8) ] () in
  (* one long-lived flow pinned to a dip that the update rehashes *)
  let pinned = List.init 30 (fun i -> i) in
  List.iter (fun i -> ignore (b.Lb.Balancer.process ~now:0. (syn i))) pinned;
  b.Lb.Balancer.update ~now:1. ~vip (Lb.Balancer.Dip_remove (dip 8));
  List.iter (fun i -> ignore (b.Lb.Balancer.process ~now:1.5 (data i))) pinned;
  b.Lb.Balancer.advance ~now:100.;
  (* some flows rehash differently under the 7-dip pool: cannot migrate *)
  check Alcotest.int "no migration while old conns live" 0 (stats ()).Baselines.Duet.migrations;
  (* close every connection: now it may migrate *)
  List.iter (fun i -> ignore (b.Lb.Balancer.process ~now:101. (fin i))) pinned;
  b.Lb.Balancer.advance ~now:200.;
  check Alcotest.int "migrated after drain" 1 (stats ()).Baselines.Duet.migrations

let suites =
  [
    ( "baselines.ecmp",
      [
        tc "stateless consistency" `Quick ecmp_stateless_consistency;
        tc "breaks on update" `Quick ecmp_breaks_on_update;
        tc "unknown vip drops" `Quick ecmp_unknown_vip_drops;
      ] );
    ( "baselines.slb",
      [
        tc "pcc across updates" `Quick slb_pcc_across_updates;
        tc "fin removes" `Quick slb_fin_removes;
        tc "new conns new pool" `Quick slb_new_conns_use_new_pool;
        tc "capacity overload" `Quick slb_capacity_overload;
      ] );
    ( "baselines.maglev",
      [
        tc "balanced" `Quick maglev_balanced;
        tc "low disruption" `Quick maglev_low_disruption;
        tc "bad args" `Quick maglev_rejects_bad_args;
        tc "lookup members" `Quick maglev_lookup_members;
      ] );
    ( "baselines.duet",
      [
        tc "switch path when idle" `Quick duet_switch_path_idle;
        tc "redirect on update" `Quick duet_redirects_on_update;
        tc "migrate back" `Quick duet_migrates_back;
        tc "pcc during redirect" `Quick duet_slb_keeps_pcc_during_redirect;
        tc "migrate-pcc waits" `Quick duet_pcc_policy_waits;
      ] );
  ]

(* Tests for the shared LB abstractions: DIP pools, the balancer
   interface helpers, the PCC oracle. *)

let check = Alcotest.check
let tc = Alcotest.test_case

let dip i = Netcore.Endpoint.v4 10 0 0 i 20
let vip = Netcore.Endpoint.v4 20 0 0 1 80

let flow i =
  Netcore.Five_tuple.make
    ~src:(Netcore.Endpoint.v4 1 2 3 4 (1000 + i))
    ~dst:vip ~proto:Netcore.Protocol.Tcp

(* ---------- Dip_pool ---------- *)

let pool_basics () =
  let p = Lb.Dip_pool.of_list [ dip 1; dip 2; dip 3 ] in
  check Alcotest.int "size" 3 (Lb.Dip_pool.size p);
  check Alcotest.bool "mem" true (Lb.Dip_pool.mem p (dip 2));
  check Alcotest.bool "not mem" false (Lb.Dip_pool.mem p (dip 9));
  check Alcotest.bool "empty" true (Lb.Dip_pool.is_empty (Lb.Dip_pool.of_list []))

let pool_duplicates_rejected () =
  Alcotest.check_raises "duplicate" (Invalid_argument "Dip_pool.of_list: duplicate DIP")
    (fun () -> ignore (Lb.Dip_pool.of_list [ dip 1; dip 1 ]));
  let p = Lb.Dip_pool.of_list [ dip 1 ] in
  Alcotest.check_raises "add dup" (Invalid_argument "Dip_pool.add: already present") (fun () ->
      ignore (Lb.Dip_pool.add p (dip 1)))

let pool_add_remove_replace () =
  let p = Lb.Dip_pool.of_list [ dip 1; dip 2 ] in
  let p2 = Lb.Dip_pool.add p (dip 3) in
  check Alcotest.int "grown" 3 (Lb.Dip_pool.size p2);
  check Alcotest.int "original untouched" 2 (Lb.Dip_pool.size p);
  let p3 = Lb.Dip_pool.remove p2 (dip 2) in
  check Alcotest.bool "removed" false (Lb.Dip_pool.mem p3 (dip 2));
  let p4 = Lb.Dip_pool.replace p ~old_dip:(dip 2) ~new_dip:(dip 9) in
  check Alcotest.bool "replaced in" true (Lb.Dip_pool.mem p4 (dip 9));
  check Alcotest.bool "replaced out" false (Lb.Dip_pool.mem p4 (dip 2));
  (* replace preserves the slot of every other member *)
  let m = Lb.Dip_pool.members p and m4 = Lb.Dip_pool.members p4 in
  check Alcotest.bool "slot 0 kept" true (Netcore.Endpoint.equal m.(0) m4.(0))

let pool_select_consistent () =
  let p = Lb.Dip_pool.of_list [ dip 1; dip 2; dip 3; dip 4 ] in
  for i = 0 to 50 do
    let f = flow i in
    let a = Lb.Dip_pool.select_flow ~seed:3 p f in
    let b = Lb.Dip_pool.select_flow ~seed:3 p f in
    check Alcotest.bool "same flow same dip" true (Netcore.Endpoint.equal a b);
    check Alcotest.bool "member" true (Lb.Dip_pool.mem p a)
  done

let qcheck_pool_replace_slots =
  QCheck.Test.make ~name:"replace only rehashes the replaced slot" ~count:100
    QCheck.(pair (int_range 2 20) (int_range 0 1000))
    (fun (n, fi) ->
      let p = Lb.Dip_pool.of_list (List.init n (fun i -> dip (i + 1))) in
      let p' = Lb.Dip_pool.replace p ~old_dip:(dip 1) ~new_dip:(dip 200) in
      let f = flow fi in
      let a = Lb.Dip_pool.select_flow ~seed:1 p f in
      let b = Lb.Dip_pool.select_flow ~seed:1 p' f in
      if Netcore.Endpoint.equal a (dip 1) then Netcore.Endpoint.equal b (dip 200)
      else Netcore.Endpoint.equal a b)

(* ---------- Balancer helpers ---------- *)

let apply_update_pure () =
  let p = Lb.Dip_pool.of_list [ dip 1; dip 2 ] in
  let p2 = Lb.Balancer.apply_update p (Lb.Balancer.Dip_add (dip 3)) in
  check Alcotest.int "add" 3 (Lb.Dip_pool.size p2);
  let p3 = Lb.Balancer.apply_update p (Lb.Balancer.Dip_remove (dip 1)) in
  check Alcotest.int "remove" 1 (Lb.Dip_pool.size p3);
  let p4 =
    Lb.Balancer.apply_update p (Lb.Balancer.Dip_replace { old_dip = dip 2; new_dip = dip 7 })
  in
  check Alcotest.bool "replace" true (Lb.Dip_pool.mem p4 (dip 7))

(* ---------- Pcc oracle ---------- *)

let pcc_consistent_flow () =
  let o = Lb.Pcc.create () in
  Lb.Pcc.on_packet o ~flow_id:1 ~dip:(Some (dip 1));
  Lb.Pcc.on_packet o ~flow_id:1 ~dip:(Some (dip 1));
  Lb.Pcc.on_finish o ~flow_id:1;
  check Alcotest.int "total" 1 (Lb.Pcc.total o);
  check Alcotest.int "broken" 0 (Lb.Pcc.broken o);
  check (Alcotest.float 1e-9) "fraction" 0. (Lb.Pcc.broken_fraction o)

let pcc_violation () =
  let o = Lb.Pcc.create () in
  Lb.Pcc.on_packet o ~flow_id:1 ~dip:(Some (dip 1));
  Lb.Pcc.on_packet o ~flow_id:1 ~dip:(Some (dip 2));
  Lb.Pcc.on_packet o ~flow_id:1 ~dip:(Some (dip 2));
  check Alcotest.int "broken once" 1 (Lb.Pcc.broken o);
  check Alcotest.int "two bad packets" 2 (Lb.Pcc.violations o)

let pcc_drop_breaks () =
  let o = Lb.Pcc.create () in
  Lb.Pcc.on_packet o ~flow_id:1 ~dip:(Some (dip 1));
  Lb.Pcc.on_packet o ~flow_id:1 ~dip:None;
  check Alcotest.int "broken" 1 (Lb.Pcc.broken o);
  (* first packet dropped also counts *)
  Lb.Pcc.on_packet o ~flow_id:2 ~dip:None;
  check Alcotest.int "broken 2" 2 (Lb.Pcc.broken o)

let pcc_excluded_after_dip_removed () =
  let o = Lb.Pcc.create () in
  Lb.Pcc.on_packet o ~flow_id:1 ~dip:(Some (dip 1));
  Lb.Pcc.on_packet o ~flow_id:2 ~dip:(Some (dip 2));
  Lb.Pcc.on_dip_removed o ~dip:(dip 1);
  (* flow 1 is excused: its server died *)
  Lb.Pcc.on_packet o ~flow_id:1 ~dip:(Some (dip 3));
  (* flow 2 is not *)
  Lb.Pcc.on_packet o ~flow_id:2 ~dip:(Some (dip 3));
  check Alcotest.int "only live remap counts" 1 (Lb.Pcc.broken o)

let pcc_finish_frees_state () =
  let o = Lb.Pcc.create () in
  Lb.Pcc.on_packet o ~flow_id:1 ~dip:(Some (dip 1));
  Lb.Pcc.on_finish o ~flow_id:1;
  (* a new flow may reuse the id (ids are unique in practice; reuse must
     not crash and counts as a fresh connection) *)
  Lb.Pcc.on_packet o ~flow_id:1 ~dip:(Some (dip 2));
  check Alcotest.int "re-registered" 2 (Lb.Pcc.total o)

let qcheck_pcc_counts =
  QCheck.Test.make ~name:"broken <= total" ~count:100
    QCheck.(list (pair (int_bound 20) (option (int_range 1 5))))
    (fun packets ->
      let o = Lb.Pcc.create () in
      List.iter
        (fun (fid, d) -> Lb.Pcc.on_packet o ~flow_id:fid ~dip:(Option.map dip d))
        packets;
      Lb.Pcc.broken o <= Lb.Pcc.total o && Lb.Pcc.broken o <= Lb.Pcc.violations o)

(* ---------- Pcc.Flat refines the spec ---------- *)

type pcc_op =
  | Pkt of int * int option * bool  (** flow, DIP (None = drop), ends *)
  | Remove of int  (** DIP removed from its pool *)

let n_pcc_flows = 5

let pp_pcc_op = function
  | Pkt (f, d, ends) ->
    Printf.sprintf "pkt(%d,%s%s)" f
      (match d with Some d -> string_of_int d | None -> "drop")
      (if ends then ",end" else "")
  | Remove d -> Printf.sprintf "remove(%d)" d

(* Drive the spec and the flat judge through the same stream. Each
   packet is judged with the counters its side names: one set, or
   several as a sharded or network-wide engine keeps them. Every
   exclusion is logged in all of them, as Netwide.Replay does, so a flow
   that changes sides mid-connection — a re-homing — is still excused.
   The spec has no first-DIP accessor, so a flow's expected first DIP
   is the one of the packet that raised the spec's [total]. *)
let flat_matches_spec ~sides ops =
  let no_dip = Lb.Pcc.Flat.no_dip in
  let spec = Lb.Pcc.create () in
  let flat = Lb.Pcc.Flat.create n_pcc_flows in
  let cs = Array.init sides (fun _ -> Lb.Pcc.Flat.counters ()) in
  let expected_first = Array.make n_pcc_flows no_dip in
  let packets = ref 0 and dropped = ref 0 in
  List.iter
    (fun (op, side) ->
      match op with
      | Pkt (f, d, ends) ->
        let d = Option.map dip d in
        let before = Lb.Pcc.total spec in
        Lb.Pcc.on_packet spec ~flow_id:f ~dip:d;
        if ends then Lb.Pcc.on_finish spec ~flow_id:f;
        let d = Option.value d ~default:no_dip in
        if Lb.Pcc.total spec > before then expected_first.(f) <- d;
        incr packets;
        if d == no_dip then incr dropped;
        Lb.Pcc.Flat.judge flat cs.(side) f d ~ends
      | Remove d ->
        Lb.Pcc.on_dip_removed spec ~dip:(dip d);
        Array.iter (fun c -> Lb.Pcc.Flat.exclude c (dip d)) cs)
    ops;
  let sum field = Array.fold_left (fun n c -> n + field c) 0 cs in
  let same_first a b = if a == no_dip then b == no_dip else b != no_dip && Netcore.Endpoint.equal a b in
  sum (fun c -> c.Lb.Pcc.Flat.total) = Lb.Pcc.total spec
  && sum (fun c -> c.Lb.Pcc.Flat.broken) = Lb.Pcc.broken spec
  && sum (fun c -> c.Lb.Pcc.Flat.violations) = Lb.Pcc.violations spec
  && sum (fun c -> c.Lb.Pcc.Flat.packets) = !packets
  && sum (fun c -> c.Lb.Pcc.Flat.dropped) = !dropped
  && List.for_all
       (fun f -> same_first expected_first.(f) (Lb.Pcc.Flat.first_dip flat).(f))
       (List.init n_pcc_flows Fun.id)

let one_side ops = List.map (fun op -> (op, 0)) ops

(* the orders no replay workload pins directly *)
let flat_edge_orders () =
  let ops =
    [ (* drop on the first packet, then a delivered one: still broken *)
      Pkt (0, None, false); Pkt (0, Some 1, false);
      (* excluding DIP 1 must not excuse flow 0, whose first was a drop *)
      Remove 1; Pkt (0, Some 2, false);
      (* restart after an end is a fresh connection *)
      Pkt (1, Some 2, true); Pkt (1, Some 3, false); Pkt (1, Some 3, false);
      (* an excluded flow is no longer judged *)
      Pkt (2, Some 3, false); Remove 3; Pkt (2, None, false); Pkt (1, Some 2, true) ]
  in
  check Alcotest.bool "flat judge = spec" true (flat_matches_spec ~sides:1 (one_side ops))

(* A DIP can be retired and still be chosen: [Dip_dead] keeps it in its
   pool, and a VIP in step 1 still forwards new connections with the
   old one. A connection born after the retirement, or re-born on a flow
   that ended, is judged like any other. *)
let flat_born_after_exclusion () =
  let ops =
    [ Remove 1; Pkt (0, Some 1, false); Pkt (0, Some 2, false);
      (* flow 1 lives across the retirement, ends, and comes back *)
      Pkt (1, Some 1, false); Remove 1; Pkt (1, Some 1, true);
      Pkt (1, Some 1, false); Pkt (1, Some 3, false) ]
  in
  check Alcotest.bool "flat judge = spec" true (flat_matches_spec ~sides:1 (one_side ops));
  let t = Lb.Pcc.Flat.create 2 and c = Lb.Pcc.Flat.counters () in
  List.iter
    (function
      | Pkt (f, d, ends) -> Lb.Pcc.Flat.judge t c f (dip (Option.get d)) ~ends
      | Remove d -> Lb.Pcc.Flat.exclude c (dip d))
    ops;
  check Alcotest.int "both new connections broken" 2 c.Lb.Pcc.Flat.broken

(* a retirement logged in one shard's counters excuses none of another
   shard's flows *)
let flat_log_is_per_counters () =
  let t = Lb.Pcc.Flat.create 2 in
  let c = [| Lb.Pcc.Flat.counters (); Lb.Pcc.Flat.counters () |] in
  List.iter (fun f -> Lb.Pcc.Flat.judge t c.(f) f (dip 1) ~ends:false) [ 0; 1 ];
  Lb.Pcc.Flat.exclude c.(0) (dip 1);
  List.iter (fun f -> Lb.Pcc.Flat.judge t c.(f) f (dip 2) ~ends:false) [ 0; 1 ];
  check Alcotest.int "shard 0's flow excused" 0 c.(0).Lb.Pcc.Flat.broken;
  check Alcotest.int "shard 1's flow still judged" 1 c.(1).Lb.Pcc.Flat.broken

let gen_pcc_op =
  QCheck.Gen.(
    frequency
      [ ( 8,
          map3
            (fun f d ends -> Pkt (f, d, ends))
            (int_bound (n_pcc_flows - 1))
            (frequency [ (1, return None); (4, map Option.some (int_range 1 3)) ])
            (map (fun k -> k = 0) (int_bound 4)) );
        (1, map (fun d -> Remove d) (int_range 1 3)) ])

let print_sided ops =
  String.concat " " (List.map (fun (op, side) -> Printf.sprintf "%s@%d" (pp_pcc_op op) side) ops)

let qcheck_flat_refines_spec =
  QCheck.Test.make ~name:"Flat judge = spec on random streams" ~count:500
    (QCheck.make ~print:print_sided
       QCheck.Gen.(list_size (int_bound 60) (pair gen_pcc_op (return 0))))
    (flat_matches_spec ~sides:1)

(* two counters, each packet judged by either, every exclusion
   broadcast: a flow may be re-homed between any two of its packets *)
let qcheck_flat_two_counters =
  QCheck.Test.make ~name:"Flat judge over two counters = spec" ~count:500
    (QCheck.make ~print:print_sided
       QCheck.Gen.(list_size (int_bound 60) (pair gen_pcc_op (int_bound 1))))
    (flat_matches_spec ~sides:2)

let suites =
  [
    ( "lb.dip_pool",
      [
        tc "basics" `Quick pool_basics;
        tc "duplicates" `Quick pool_duplicates_rejected;
        tc "add/remove/replace" `Quick pool_add_remove_replace;
        tc "select consistency" `Quick pool_select_consistent;
        QCheck_alcotest.to_alcotest qcheck_pool_replace_slots;
      ] );
    ("lb.balancer", [ tc "apply_update" `Quick apply_update_pure ]);
    ( "lb.pcc",
      [
        tc "consistent" `Quick pcc_consistent_flow;
        tc "violation" `Quick pcc_violation;
        tc "drops break" `Quick pcc_drop_breaks;
        tc "dip removal excuses" `Quick pcc_excluded_after_dip_removed;
        tc "finish frees" `Quick pcc_finish_frees_state;
        QCheck_alcotest.to_alcotest qcheck_pcc_counts;
        tc "flat judge edge orders" `Quick flat_edge_orders;
        tc "flat judges connections born after an exclusion" `Quick flat_born_after_exclusion;
        tc "flat exclusion log is per counters" `Quick flat_log_is_per_counters;
        QCheck_alcotest.to_alcotest qcheck_flat_refines_spec;
        QCheck_alcotest.to_alcotest qcheck_flat_two_counters;
      ] );
  ]

(* Allocation guard for the per-packet path. Each probe counts
   [Gc.minor_words] around 10,000 calls made from a closure-free loop,
   after a warm-up pass, under the same build (dune's dev profile, where
   every library is compiled [-opaque]) that the benchmark runs. The
   exact-hit path must allocate nothing: the only allowance is a few
   words for the probe itself. *)

let check = Alcotest.check
let tc = Alcotest.test_case

let calls = 10_000
let n_flows = 1_000

(* total words a probe may report for 10,000 calls *)
let slack = 16.

let vip = Netcore.Endpoint.v4 20 0 0 1 80
let pool = Lb.Dip_pool.of_list (List.init 8 (fun i -> Netcore.Endpoint.v4 10 0 0 (i + 1) 20))

let flows =
  Array.init n_flows (fun i ->
      Netcore.Five_tuple.make
        ~src:(Netcore.Endpoint.v4 1 2 3 4 (1000 + i))
        ~dst:vip ~proto:Netcore.Protocol.Tcp)

(* [words f] is the minor words [f ()] allocated; [f] runs the loop *)
let words f =
  f ();
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let check_free name w =
  check Alcotest.bool
    (Printf.sprintf "%s: %.0f words for %d calls" name w calls)
    true (w <= slack)

(* A switch whose ConnTable holds an entry for every flow, paused at
   [now] with an empty learning filter and an idle CPU. [now] is boxed
   once here, as a packet time read from a trace is. *)
let installed_switch () =
  let sw = Silkroad.Switch.create ~check:`Off Silkroad.Config.default in
  Silkroad.Switch.add_vip sw vip pool;
  Array.iteri
    (fun i f ->
      ignore
        (Silkroad.Switch.process_flow sw
           ~now:(1. +. (float_of_int i *. 1e-6))
           ~flags:Netcore.Tcp_flags.syn ~payload_len:0 f))
    flows;
  let now = Sys.opaque_identity 2. in
  Silkroad.Switch.advance sw ~now;
  let ct = Silkroad.Switch.conn_table sw in
  check Alcotest.int "every flow hits exactly" n_flows
    (Array.fold_left
       (fun n f -> n + (Silkroad.Conn_table.lookup_code ct f land 1))
       0 flows);
  (sw, now)

let process_flow_exact_hit () =
  let sw, now = installed_switch () in
  let w =
    words (fun () ->
        for i = 0 to calls - 1 do
          ignore
            (Silkroad.Switch.process_flow sw ~now ~flags:Netcore.Tcp_flags.data
               ~payload_len:1024
               (Array.unsafe_get flows (i mod n_flows)))
        done)
  in
  check Alcotest.bool "forwarded by the ASIC" true
    (Silkroad.Switch.last_location sw = Lb.Balancer.Asic);
  check_free "Switch.process_flow, exact hit" w

(* The batch loop reads each time out of a flat float array and boxes it
   for [process_flow], which keeps it as the connection's [last_seen]:
   two words a packet, and nothing else. *)
let process_batch_exact_hit () =
  let sw, now = installed_switch () in
  let times = Array.make calls now in
  let batch = Array.init calls (fun i -> flows.(i mod n_flows)) in
  let flags = Array.make calls Netcore.Tcp_flags.data in
  let dips = Array.make calls Silkroad.Switch.no_dip in
  let w =
    words (fun () ->
        Silkroad.Switch.process_batch sw ~times ~flows:batch ~flags ~payload_len:1024 ~dips
          ~pos:0 ~len:calls)
  in
  check Alcotest.bool "every packet forwarded" true
    (Array.for_all (fun d -> d != Silkroad.Switch.no_dip) dips);
  check Alcotest.bool
    (Printf.sprintf "Switch.process_batch, exact hit: %.0f words for %d packets" w calls)
    true
    (w <= (2. *. float_of_int calls) +. slack)

let lookup_code () =
  let sw, _ = installed_switch () in
  let ct = Silkroad.Switch.conn_table sw in
  let w =
    words (fun () ->
        for i = 0 to calls - 1 do
          ignore (Silkroad.Conn_table.lookup_code ct (Array.unsafe_get flows (i mod n_flows)))
        done)
  in
  check_free "Conn_table.lookup_code" w

let advance_same_tick () =
  let sw, now = installed_switch () in
  let w =
    words (fun () ->
        for _ = 1 to calls do
          Silkroad.Switch.advance sw ~now
        done)
  in
  check_free "Switch.advance, same tick" w

let range_and_bits () =
  let w =
    words (fun () ->
        for i = 0 to calls - 1 do
          let f = Array.unsafe_get flows (i mod n_flows) in
          ignore (Netcore.Five_tuple.range ~seed:i f 1000);
          ignore (Netcore.Five_tuple.bits ~seed:i f 16)
        done)
  in
  check_free "Five_tuple.range and bits" w

(* A connection's install and teardown on a low-occupancy ConnTable:
   every row, digest and shadow-index position comes from the tuple's
   cached hash as a plain int, the index is two flat arrays, and the
   cuckoo insert ladder and removal scan are closure-free loops. The
   residents grow the shadow index beforehand, and the warm-up pass
   makes the same inserts and removals, so the measured pairs never
   resize it. What remains is [Ok moves] and the size and occupancy
   gauges' boxed floats: 10 words per pair on OCaml 5.1.1. *)
let insert_remove_words_per_pair = 10.

let conn_table_insert_remove () =
  let cfg = { Silkroad.Config.default with Silkroad.Config.conn_table_rows = 4096 } in
  let ct = Silkroad.Conn_table.create cfg in
  Array.iter (fun f -> ignore (Silkroad.Conn_table.insert ct f ~version:1)) flows;
  let fresh =
    Array.init n_flows (fun i ->
        Netcore.Five_tuple.make
          ~src:(Netcore.Endpoint.v4 5 6 7 8 (1000 + i))
          ~dst:vip ~proto:Netcore.Protocol.Tcp)
  in
  let w =
    words (fun () ->
        for i = 0 to calls - 1 do
          let f = Array.unsafe_get fresh (i mod n_flows) in
          ignore (Silkroad.Conn_table.insert ct f ~version:2);
          ignore (Silkroad.Conn_table.remove ct f)
        done)
  in
  check Alcotest.int "residents only" n_flows (Silkroad.Conn_table.size ct);
  check Alcotest.bool
    (Printf.sprintf "Conn_table.insert + remove: %.0f words for %d pairs" w calls)
    true
    (w <= (insert_remove_words_per_pair *. float_of_int calls) +. slack)

(* The judge every engine calls per packet: a consistent packet, and a
   packet of a flow excused by a logged exclusion, allocate nothing. *)
let pcc_judge () =
  let dips = Lb.Dip_pool.members pool in
  let first = Array.init n_flows (fun i -> dips.(i mod Array.length dips)) in
  let t = Lb.Pcc.Flat.create n_flows and c = Lb.Pcc.Flat.counters () in
  Array.iteri (fun i d -> Lb.Pcc.Flat.judge t c i d ~ends:false) first;
  let w =
    words (fun () ->
        for i = 0 to calls - 1 do
          let f = i mod n_flows in
          Lb.Pcc.Flat.judge t c f (Array.unsafe_get first f) ~ends:false
        done)
  in
  check_free "Lb.Pcc.Flat.judge, consistent" w;
  (* the flows pinned to the retired DIP now reach another one: the
     warm-up pass excuses each (its one log scan), the measured pass
     skips them *)
  Lb.Pcc.Flat.exclude c dips.(0);
  let pinned = n_flows / Array.length dips in
  let w =
    words (fun () ->
        for i = 0 to calls - 1 do
          Lb.Pcc.Flat.judge t c (i mod pinned * Array.length dips) dips.(1) ~ends:false
        done)
  in
  check Alcotest.int "excused, not broken" 0 c.Lb.Pcc.Flat.broken;
  check_free "Lb.Pcc.Flat.judge, excluded" w

let suites =
  [
    ( "alloc.hot_path",
      [
        tc "process_flow exact hit" `Quick process_flow_exact_hit;
        tc "process_batch exact hit" `Quick process_batch_exact_hit;
        tc "lookup_code" `Quick lookup_code;
        tc "advance same tick" `Quick advance_same_tick;
        tc "range and bits" `Quick range_and_bits;
        tc "pcc judge consistent and excluded" `Quick pcc_judge;
        tc "conn_table insert + remove" `Quick conn_table_insert_remove;
      ] );
  ]

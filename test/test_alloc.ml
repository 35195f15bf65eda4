(* Allocation guard for the per-packet path. Each probe counts
   [Gc.minor_words] around 10,000 calls made from a closure-free loop,
   after a warm-up pass, under the same build that the benchmark runs:
   the release profile the root dune-workspace selects, where no library
   is compiled [-opaque], so small functions are inlined across modules
   and a float or int64 they return stays unboxed ([cross_library_inline]
   fails under [--profile dev]). The exact-hit path must allocate
   nothing: the only allowance is a few words for the probe itself.
   Four pins read other counters: the words an exact hit leaves to be
   promoted, the ConnTable's footprint, a switch's per live connection
   and a 5-tuple's. *)

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

(* The batch loop reads each packet in place in a packed schedule,
   through an index array, and boxes its time for [process_flow]: two
   words a packet, and nothing else. The box dies young, because the
   connection keeps the time's bits as its [last_seen], not the box
   ([exact_hits_promote_nothing] pins that). *)
(* [n] data packets at [now], cycling through [flows], laid out as a
   packed schedule: the [process_batch] call over them, and the array
   it writes their DIPs to *)
let exact_hit_batch sw ~now n =
  let times = Array.make n now in
  let pkt_flow = Array.init n (fun i -> i mod n_flows) in
  let pkt_flags = Bytes.make n (Char.chr (Netcore.Tcp_flags.to_byte Netcore.Tcp_flags.data)) in
  let flags_of_byte = Array.init 256 Netcore.Tcp_flags.of_byte in
  let idx = Array.init n Fun.id in
  let dips = Array.make n Silkroad.Switch.no_dip in
  let run () =
    Silkroad.Switch.process_batch sw ~times ~tuples:flows ~pkt_flow ~pkt_flags ~flags_of_byte
      ~payload_len:1024 ~idx ~dips ~len:n
  in
  (run, dips)

let process_batch_exact_hit () =
  let sw, now = installed_switch () in
  let run, dips = exact_hit_batch sw ~now calls in
  let w = words run in
  check Alcotest.bool "every packet forwarded" true
    (Array.for_all (fun d -> d != Silkroad.Switch.no_dip) dips);
  check Alcotest.bool
    (Printf.sprintf "Switch.process_batch, exact hit: %.0f words for %d packets" w calls)
    true
    (w <= (2. *. float_of_int calls) +. slack)

(* One exact hit on each of [n_flows] installed connections, through
   the batch loop, which boxes every packet time. Storing the time in
   the long-lived connection record as a float would keep each box
   alive into the next minor collection, which then promotes it: two
   words a connection. The record stores the time's bits as an int, so
   only the probe's own boxed counter reading survives. *)
let exact_hits_promote_nothing () =
  let sw, now = installed_switch () in
  let run, dips = exact_hit_batch sw ~now n_flows in
  Gc.minor ();
  let before = (Gc.quick_stat ()).Gc.promoted_words in
  run ();
  Gc.minor ();
  let promoted = (Gc.quick_stat ()).Gc.promoted_words -. before in
  check Alcotest.bool "every packet forwarded" true
    (Array.for_all (fun d -> d != Silkroad.Switch.no_dip) dips);
  check Alcotest.bool
    (Printf.sprintf "Switch.process_batch, %d exact hits: %.0f words promoted" n_flows promoted)
    true (promoted <= slack)

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

(* A learning event waits in the filter for its timeout. The per-packet
   probe of its deadline is a bool, and the deadline itself (a float,
   boxed across the module boundary) is read only when a drain fires. *)
let advance_learning_pending () =
  let sw = Silkroad.Switch.create ~check:`Off Silkroad.Config.default in
  Silkroad.Switch.add_vip sw vip pool;
  ignore
    (Silkroad.Switch.process_flow sw ~now:1. ~flags:Netcore.Tcp_flags.syn ~payload_len:0
       flows.(0));
  let now = Sys.opaque_identity 1.0001 in
  let w =
    words (fun () ->
        for _ = 1 to calls do
          Silkroad.Switch.advance sw ~now
        done)
  in
  check Alcotest.int "the event is still pending" 0 (Silkroad.Switch.connections sw);
  check_free "Switch.advance, learning event pending" w

(* An update job waits in step 1 on a connection still being learned.
   [advance] scans the VIPs for an overdue barrier only once the oldest
   job's deadline has passed, so until then an active job costs one
   float compare per call and no allocation. *)
let advance_update_job_active () =
  let sw = Silkroad.Switch.create ~check:`Off Silkroad.Config.default in
  Silkroad.Switch.add_vip sw vip pool;
  ignore
    (Silkroad.Switch.process_flow sw ~now:1. ~flags:Netcore.Tcp_flags.syn ~payload_len:0
       flows.(0));
  Silkroad.Switch.request_update sw ~now:1.00005 ~vip
    (Lb.Balancer.Dip_remove (Lb.Dip_pool.members pool).(0));
  let now = Sys.opaque_identity 1.0001 in
  let w =
    words (fun () ->
        for _ = 1 to calls do
          Silkroad.Switch.advance sw ~now
        done)
  in
  check Alcotest.int "the job waits on its barrier" 1
    (Silkroad.Update_job.pending (Silkroad.Switch.jobs sw));
  check_free "Switch.advance, update job active" w

(* One connection's whole life through the switch: its SYN misses and
   raises a learning event; an [advance] past the filter's timeout
   drains it and completes the CPU's insert; the FIN hits exactly and
   queues the delete; an [advance] completes it and destroys the state.
   The connection is a handle into the switch's slab, so every
   structure it passes through holds an int and nothing is allocated
   for the connection itself: the words are the calls' boxed times, the
   [flows] binding, the CPU queue's cells, the drained batch, the
   insert's [Ok], and the float arguments of the CPU backlog and
   queue-delay gauges (the count-valued gauges are written as ints, the
   ConnTable occupancy as a ratio of ints). Measured on OCaml 5.1.1:
   64.0 words per connection, bounded at the next whole word. It read
   68.0 with every library compiled [-opaque], where each float that
   crossed a module boundary was boxed. The same life cost 83.0 with a
   record per connection and a boxed occupancy,
   93.0 while every gauge write boxed its float, 106.0 while the VIP
   was also resolved through option-returning lookups, and 146.0 when
   the pending set, the aging wheel, the learning filter's payload and
   the CPU batches were keyed by 5-tuple. *)
let life_words_per_connection = 65.

let connection_life () =
  let sw = Silkroad.Switch.create ~check:`Off Silkroad.Config.default in
  Silkroad.Switch.add_vip sw vip pool;
  let clock = ref 1. in
  let w =
    words (fun () ->
        for i = 0 to calls - 1 do
          let flow = Array.unsafe_get flows (i mod n_flows) and t = !clock in
          ignore
            (Silkroad.Switch.process_flow sw ~now:t ~flags:Netcore.Tcp_flags.syn ~payload_len:0
               flow);
          Silkroad.Switch.advance sw ~now:(t +. 0.002);
          ignore
            (Silkroad.Switch.process_flow sw ~now:(t +. 0.003) ~flags:Netcore.Tcp_flags.fin
               ~payload_len:0 flow);
          Silkroad.Switch.advance sw ~now:(t +. 0.004);
          clock := t +. 0.005
        done)
  in
  let s = Silkroad.Switch.stats sw in
  check Alcotest.int "every life went through the ASIC" (2 * 2 * calls) s.Silkroad.Switch.asic_packets;
  check Alcotest.int "every connection torn down" 0 (Silkroad.Switch.connections sw);
  check Alcotest.bool
    (Printf.sprintf "Switch, one connection's life: %.0f words for %d connections" w calls)
    true
    (w <= (life_words_per_connection *. float_of_int calls) +. slack)

(* A VIP over its meter: every packet is marked Red and dropped before
   any table is consulted. The VIP's record holds its meter and the
   handle of its switch.vip.metered_drops counter, and the meter is an
   all-float record whose token-bucket refills are stored unboxed, so a
   drop allocates nothing. It was 4 words per packet while the meter was
   a mixed record (each refill a boxed float), and 545 while each drop
   looked the meter up by address and re-registered the labelled
   counter, rendering its label with [Format.asprintf]. *)
let metered_drop_words_per_packet = 0.

let metered_drop () =
  let sw, now = installed_switch () in
  Silkroad.Switch.set_meter sw ~vip ~cir:1. ~cbs:1 ~eir:1. ~ebs:1;
  let w =
    words (fun () ->
        for i = 0 to calls - 1 do
          ignore
            (Silkroad.Switch.process_flow sw ~now ~flags:Netcore.Tcp_flags.data
               ~payload_len:1024
               (Array.unsafe_get flows (i mod n_flows)))
        done)
  in
  check Alcotest.int "every packet metered" (2 * calls) (Silkroad.Switch.metered_drops sw);
  check Alcotest.bool
    (Printf.sprintf "Switch.process_flow, metered drop: %.0f words for %d packets" w calls)
    true
    (w <= (metered_drop_words_per_packet *. float_of_int calls) +. slack)

(* A ConnTable miss while the VIP's update records step 1: every
   packet of a connection still being learned marks the TransitTable.
   [Five_tuple.hash] and [Bloom_filter.add] are inlined into
   [Update_job.miss], so the tuple's hash reaches the filter's probe
   loop unboxed, and the filter writes its fill gauge as a ratio of
   ints: the miss allocates nothing. It was 11 words a call while the
   hash crossed into the filter as a boxed int64 (3), each of the
   filter's two hash functions boxed its argument and result (6), and
   the fill gauge boxed its float (2). *)
let update_miss () =
  let sw = Silkroad.Switch.create ~check:`Off Silkroad.Config.default in
  Silkroad.Switch.add_vip sw vip pool;
  Array.iter
    (fun f ->
      ignore
        (Silkroad.Switch.process_flow sw ~now:1. ~flags:Netcore.Tcp_flags.syn ~payload_len:0 f))
    flows;
  Silkroad.Switch.request_update sw ~now:1.00005 ~vip
    (Lb.Balancer.Dip_remove (Lb.Dip_pool.members pool).(0));
  let now = Sys.opaque_identity 1.0001 in
  let w =
    words (fun () ->
        for i = 0 to calls - 1 do
          ignore
            (Silkroad.Switch.process_flow sw ~now ~flags:Netcore.Tcp_flags.data ~payload_len:1024
               (Array.unsafe_get flows (i mod n_flows)))
        done)
  in
  check Alcotest.int "no flow installed yet" 0 (Silkroad.Switch.connections sw);
  check Alcotest.bool "the job records step 1" true
    (match (Silkroad.Vip_table.find (Silkroad.Switch.vip_table sw) vip).Silkroad.Vip_table.phase with
     | Silkroad.Vip_table.Recording _ -> true
     | Silkroad.Vip_table.Idle | Silkroad.Vip_table.Dual _ -> false);
  check_free "ConnTable miss during an update" w

(* What a live, installed connection costs the switch: the words
   reachable from a switch holding [n] of them, less those of the same
   switch before its first packet, per connection. That counts the
   connection's tuple and its own source endpoint (14 words), its 7
   slab columns, its [flows] binding, its aging-wheel entry, its two
   shadow-index entries, its ConnTable slot (the table, sized for twice
   [n], allocates its 2-int slots at the first insert: 4 words a
   connection) and each structure's slack. Measured on OCaml 5.1.1:
   41.52 words (332 bytes) a connection. With a record per connection,
   a tuple-keyed shadow index and the table's word array allocated at
   creation (so outside the difference), it read 43.50. *)
let footprint_words_per_connection = 41.6

let switch_footprint () =
  let n = 4096 in
  let cfg = { Silkroad.Config.default with Silkroad.Config.conn_table_rows = 1024 } in
  let sw = Silkroad.Switch.create ~check:`Off cfg in
  Silkroad.Switch.add_vip sw vip pool;
  let reachable () = Obj.reachable_words (Obj.repr sw) in
  let empty = reachable () in
  for i = 0 to n - 1 do
    let flow =
      Netcore.Five_tuple.make
        ~src:(Netcore.Endpoint.v4 9 (i lsr 8) (i land 255) 1 (1000 + i))
        ~dst:vip ~proto:Netcore.Protocol.Tcp
    in
    ignore
      (Silkroad.Switch.process_flow sw
         ~now:(1. +. (float_of_int i *. 1e-6))
         ~flags:Netcore.Tcp_flags.syn ~payload_len:0 flow)
  done;
  Silkroad.Switch.advance sw ~now:2.;
  check Alcotest.int "every connection installed" n (Silkroad.Switch.connections sw);
  let per = float_of_int (reachable () - empty) /. float_of_int n in
  check Alcotest.bool
    (Printf.sprintf "switch words per live connection: %.2f" per)
    true
    (per <= footprint_words_per_connection)

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

(* A 5-tuple's seeded hash, the int64 the TransitTable consumes,
   folded into an int64 accumulator: [Five_tuple.hash] is inlined, so
   neither the rebuilt fold nor the result is boxed, and only the
   accumulator's final box is allocated. It was 3 words a call (the
   result's box) while each library was compiled [-opaque] and the
   fold's halves went to [Hashing.seeded_halves], and 6 while the fold
   was also boxed as the argument of [Hashing.seeded]. *)
let hash_words_per_call = 0.

let five_tuple_hash () =
  let w =
    words (fun () ->
        let acc = ref 0L in
        for i = 0 to calls - 1 do
          acc :=
            Int64.logxor !acc
              (Netcore.Five_tuple.hash ~seed:i (Array.unsafe_get flows (i mod n_flows)))
        done;
        ignore (Sys.opaque_identity !acc))
  in
  check Alcotest.bool
    (Printf.sprintf "Five_tuple.hash: %.0f words for %d calls" w calls)
    true
    (w <= (hash_words_per_call *. float_of_int calls) +. slack)

(* The switch that owns a flow on perfbench's netwide fabric (1 Core,
   2 Agg, 4 ToR): one rendezvous pick per layer, each a closure-free
   loop that keeps the best live node's index and compares two nodes'
   scores inside [Hashing.seeded_above], so no int64 crosses a module
   boundary, and the owner's [Some] is the topology's own. Measured on
   OCaml 5.1.1: 0 words. It read 110.04 words a call while each score
   was a boxed int64, the best node a fresh [Some (score, node)], each
   layer a closure and the owner the last hop of a built path list
   (119.04 while [Five_tuple.hash] also boxed its argument). *)
let owner_words_per_call = 0.

let route_owner () =
  let layer layer_name switches sram_budget_bits =
    { Silkroad.Assignment.layer_name; switches; sram_budget_bits; capacity_gbps = 10_000. }
  in
  let topo =
    Netwide.Topology.build
      ~layers:[ layer "core" 1 0; layer "agg" 2 0; layer "tor" 4 (50 * 8 * 1024 * 1024) ]
      ~vips:[ (vip, pool) ] ()
  in
  let w =
    words (fun () ->
        for i = 0 to calls - 1 do
          ignore (Netwide.Route.owner topo ~vip (Array.unsafe_get flows (i mod n_flows)))
        done)
  in
  check Alcotest.bool
    (Printf.sprintf "Netwide.Route.owner: %.0f words for %d calls (%.2f a call)" w calls
       (w /. float_of_int calls))
    true
    (w <= (owner_words_per_call *. float_of_int calls) +. slack)

(* A connection's install and teardown on a low-occupancy ConnTable:
   every row, digest and shadow-index position comes from the tuple's
   cached hash as a plain int, the index is one flat int array, the
   cuckoo insert ladder and removal scan are closure-free loops, and the
   table keeps each tuple's handle from its first insert. The residents
   grow the shadow index beforehand, and the warm-up pass makes the same
   inserts and removals, so the measured pairs never resize it. What
   remains is [Ok moves]: 2 words per pair on OCaml 5.1.1 (6 while the
   occupancy gauge boxed its float, 10 while the size gauge did too). *)
let insert_remove_words_per_pair = 2.

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

(* [repair_collision] for a flow that already resolves exactly: the
   attempt looks the flow up, finds its own entry, and looks it up again
   to verify. Each hardware lookup computes its probe rows and digests
   into the table's own arrays and allocates only its [Some hit] (7
   words); the rest is the repair's own bookkeeping. Measured on OCaml
   5.1.1: 32.0 words per call. While each lookup built its rows and
   digests with two [Array.init] closures it read 68.0. *)
let repair_words_per_call = 32.

let conn_table_repair () =
  let ct = Silkroad.Conn_table.create Silkroad.Config.default in
  Array.iter (fun f -> ignore (Silkroad.Conn_table.insert ct f ~version:1)) flows;
  let w =
    words (fun () ->
        for i = 0 to calls - 1 do
          ignore (Silkroad.Conn_table.repair_collision ct (Array.unsafe_get flows (i mod n_flows)) ~version:1)
        done)
  in
  check Alcotest.int "every flow still resolves exactly" n_flows
    (Array.fold_left (fun n f -> n + (Silkroad.Conn_table.lookup_code ct f land 1)) 0 flows);
  check Alcotest.bool
    (Printf.sprintf "Conn_table.repair_collision: %.0f words for %d calls" w calls)
    true
    (w <= (repair_words_per_call *. float_of_int calls) +. slack)

(* The ConnTable's own footprint on the default geometry (1,048,576
   slots): two ints a slot, the packed digest and version and the
   entry's handle (allocated by the first insert), and a constant for
   the shadow index, the seeds and the telemetry handles. The BFS
   arena is allocated only by an insert that reaches the BFS. A layout
   with separate digest and version arrays and an eagerly allocated
   arena reads ~3.28 words a slot. *)
let footprint_words_per_slot = 2.
let footprint_constant_words = 4096.

let conn_table_footprint () =
  (* start from an empty minor heap: without it, OCaml 5.1.1's
     [Gc.allocated_bytes] read 1,214,481 words across one
     1,048,576-word [Array.make] *)
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  let ct = Silkroad.Conn_table.create Silkroad.Config.default in
  ignore (Silkroad.Conn_table.insert ct flows.(0) ~version:1);
  let w = (Gc.allocated_bytes () -. before) /. float_of_int (Sys.word_size / 8) in
  let slots = Silkroad.Conn_table.capacity ct in
  check Alcotest.bool
    (Printf.sprintf "Conn_table.create + one insert: %.0f words for %d slots (%.3f a slot)" w
       slots
       (w /. float_of_int slots))
    true
    (w <= (footprint_words_per_slot *. float_of_int slots) +. footprint_constant_words)

(* A tuple's own footprint, its endpoints aside: one block, a header
   and five fields (src, dst, proto and the fold's two immediate
   halves). Held as an [int64] field, the fold was a pointer to a
   separate 3-word box that OCaml 5 allocates from another size class
   than the tuple, so each packet's first hash touched a second cold
   line: 8 words. *)
let five_tuple_footprint () =
  let t = flows.(0) in
  let words x = Obj.reachable_words (Obj.repr x) in
  check Alcotest.int "Five_tuple.t words beyond its endpoints" 6
    (words t - words t.Netcore.Five_tuple.src - words t.Netcore.Five_tuple.dst)

(* The build itself: a tiny float-returning function of another
   library, [Simnet.Flow.finish] ([start +. duration]), summed into a
   float accumulator. Without [-opaque] the call is inlined and the
   float never leaves a register; compiled [-opaque] (dune's dev
   profile, which the root dune-workspace overrides) every call returns
   a boxed float, 2 words. *)
let cross_library_inline () =
  let fl =
    Array.map
      (fun tuple ->
        { Simnet.Flow.id = 0; tuple; start = 1.; duration = 0.5; bytes_per_sec = 1e6 })
      flows
  in
  let w =
    words (fun () ->
        let acc = ref 0. in
        for i = 0 to calls - 1 do
          acc := !acc +. Simnet.Flow.finish (Array.unsafe_get fl (i mod n_flows))
        done;
        ignore (Sys.opaque_identity !acc))
  in
  check_free "Simnet.Flow.finish, inlined across libraries" w

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
        tc "exact hits promote nothing" `Quick exact_hits_promote_nothing;
        tc "lookup_code" `Quick lookup_code;
        tc "advance same tick" `Quick advance_same_tick;
        tc "advance with a learning event pending" `Quick advance_learning_pending;
        tc "advance with an update job active" `Quick advance_update_job_active;
        tc "one connection's life" `Quick connection_life;
        tc "process_flow metered drop" `Quick metered_drop;
        tc "range and bits" `Quick range_and_bits;
        tc "five_tuple hash" `Quick five_tuple_hash;
        tc "route owner" `Quick route_owner;
        tc "ConnTable miss during an update" `Quick update_miss;
        tc "switch words per live connection" `Quick switch_footprint;
        tc "pcc judge consistent and excluded" `Quick pcc_judge;
        tc "conn_table insert + remove" `Quick conn_table_insert_remove;
        tc "conn_table repair_collision" `Quick conn_table_repair;
        tc "conn_table footprint" `Quick conn_table_footprint;
        tc "five_tuple footprint" `Quick five_tuple_footprint;
        tc "cross-library float inlined" `Quick cross_library_inline;
      ] );
  ]

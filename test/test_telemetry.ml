(* Tests for the telemetry subsystem: registry semantics, streaming
   histogram accuracy against exact order statistics, merge laws, JSON
   round-trips, and the constant-memory guarantee the harness driver
   relies on. *)

let check = Alcotest.check
let tc = Alcotest.test_case

(* a fresh histogram holding both, as Registry.merge_into combines them *)
let merge a b =
  let h = Telemetry.Histogram.create ~spec:(Telemetry.Histogram.spec a) () in
  Telemetry.Histogram.merge_into ~into:h a;
  Telemetry.Histogram.merge_into ~into:h b;
  h

let gauge_value reg name = Telemetry.Registry.Gauge.value (Telemetry.Registry.gauge reg name)

(* ---- registry ---- *)

let registry_basics () =
  let reg = Telemetry.Registry.create () in
  let c = Telemetry.Registry.counter reg "x.count" in
  Telemetry.Registry.Counter.incr c;
  Telemetry.Registry.Counter.add c 41;
  (* get-or-create: same handle behind the same key *)
  let c' = Telemetry.Registry.counter reg "x.count" in
  Telemetry.Registry.Counter.incr c';
  check Alcotest.int "shared counter" 43 (Telemetry.Registry.counter_value reg "x.count");
  let g = Telemetry.Registry.gauge reg "x.level" in
  Telemetry.Registry.Gauge.set g 2.5;
  Telemetry.Registry.Gauge.add g 0.5;
  check (Alcotest.float 1e-12) "gauge" 3.0 (gauge_value reg "x.level");
  Telemetry.Registry.Gauge.set_int g 7;
  check (Alcotest.float 1e-12) "int gauge" 7.0 (Telemetry.Registry.Gauge.value g)

let registry_labels () =
  let reg = Telemetry.Registry.create () in
  let a = Telemetry.Registry.counter reg ~labels:[ ("vip", "a") ] "x" in
  let b = Telemetry.Registry.counter reg ~labels:[ ("vip", "b") ] "x" in
  Telemetry.Registry.Counter.incr a;
  Telemetry.Registry.Counter.add b 2;
  check Alcotest.int "label a" 1
    (Telemetry.Registry.Counter.value (Telemetry.Registry.counter reg ~labels:[ ("vip", "a") ] "x"));
  check Alcotest.int "label b" 2
    (Telemetry.Registry.Counter.value (Telemetry.Registry.counter reg ~labels:[ ("vip", "b") ] "x"));
  check Alcotest.int "no unlabeled series" 0 (Telemetry.Registry.counter_value reg "x");
  (* label order is canonicalized *)
  let ab = Telemetry.Registry.counter reg ~labels:[ ("k1", "1"); ("k2", "2") ] "y" in
  let ba = Telemetry.Registry.counter reg ~labels:[ ("k2", "2"); ("k1", "1") ] "y" in
  Telemetry.Registry.Counter.incr ab;
  Telemetry.Registry.Counter.incr ba;
  check Alcotest.int "sorted labels are one key" 2 (Telemetry.Registry.Counter.value ab)

let registry_kind_mismatch () =
  let reg = Telemetry.Registry.create () in
  ignore (Telemetry.Registry.counter reg "m");
  (match Telemetry.Registry.gauge reg "m" with
   | _ -> Alcotest.fail "expected Invalid_argument"
   | exception Invalid_argument _ -> ())

(* ---- histogram quantile accuracy ---- *)

let exact_percentile sorted q =
  (* nearest-rank on a sorted array *)
  let n = Array.length sorted in
  let i = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
  sorted.(max 0 (min (n - 1) i))

let quantile_accuracy_on samples name =
  let h = Telemetry.Histogram.create () in
  Array.iter (Telemetry.Histogram.observe h) samples;
  let sorted = Array.copy samples in
  Array.sort Float.compare sorted;
  List.iter
    (fun q ->
      let exact = exact_percentile sorted q in
      let approx = Telemetry.Histogram.quantile h q in
      let rel = Float.abs (approx -. exact) /. exact in
      if rel > 0.05 then
        Alcotest.failf "%s: q=%.3f exact=%.6g approx=%.6g rel=%.3f" name q exact approx rel)
    [ 0.25; 0.5; 0.9; 0.99; 0.999 ]

let quantile_accuracy () =
  let rng = Random.State.make [| 42 |] in
  (* lognormal-ish spread over several decades, like latencies *)
  let lognormal () =
    let u1 = Random.State.float rng 1. +. 1e-12 and u2 = Random.State.float rng 1. in
    let z = sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2) in
    exp ((z *. 1.5) -. 8.)
  in
  quantile_accuracy_on (Array.init 10_000 (fun _ -> lognormal ())) "lognormal";
  quantile_accuracy_on
    (Array.init 10_000 (fun _ -> 1e-6 +. Random.State.float rng 1e-3))
    "uniform";
  (* heavily duplicated values *)
  quantile_accuracy_on
    (Array.init 10_000 (fun i -> if i mod 10 = 0 then 5e-3 else 7e-4))
    "bimodal"

let quantile_edge_cases () =
  let h = Telemetry.Histogram.create () in
  check (Alcotest.float 0.) "empty" 0. (Telemetry.Histogram.quantile h 0.5);
  Telemetry.Histogram.observe h 3.2e-4;
  check (Alcotest.float 1e-12) "single value, q=0" 3.2e-4 (Telemetry.Histogram.quantile h 0.);
  check (Alcotest.float 1e-12) "single value, q=1" 3.2e-4 (Telemetry.Histogram.quantile h 1.);
  let m = Telemetry.Histogram.median h in
  check Alcotest.bool "single value, median within bucket" true
    (Float.abs (m -. 3.2e-4) /. 3.2e-4 < 0.05);
  (* out-of-range values land in the overflow/underflow buckets but keep
     count/min/max exact *)
  Telemetry.Histogram.observe h 0.;
  Telemetry.Histogram.observe h 1e30;
  check Alcotest.int "count" 3 (Telemetry.Histogram.count h);
  check (Alcotest.float 0.) "min" 0. (Telemetry.Histogram.min_value h);
  check (Alcotest.float 0.) "max" 1e30 (Telemetry.Histogram.max_value h)

(* ---- merge laws ---- *)

let split_merge_equals_whole () =
  let rng = Random.State.make [| 7 |] in
  let samples = Array.init 3_000 (fun _ -> exp (Random.State.float rng 10. -. 9.)) in
  let whole = Telemetry.Histogram.create () in
  Array.iter (Telemetry.Histogram.observe whole) samples;
  let parts = Array.init 3 (fun _ -> Telemetry.Histogram.create ()) in
  Array.iteri (fun i v -> Telemetry.Histogram.observe parts.(i mod 3) v) samples;
  let merged = merge (merge parts.(0) parts.(1)) parts.(2) in
  check Alcotest.int "count" (Telemetry.Histogram.count whole) (Telemetry.Histogram.count merged);
  List.iter
    (fun q ->
      check (Alcotest.float 1e-12)
        (Printf.sprintf "quantile %.3f" q)
        (Telemetry.Histogram.quantile whole q)
        (Telemetry.Histogram.quantile merged q))
    [ 0.1; 0.5; 0.9; 0.99 ]

let merge_associativity () =
  let rng = Random.State.make [| 11 |] in
  let mk () =
    let h = Telemetry.Histogram.create () in
    for _ = 1 to 500 do
      Telemetry.Histogram.observe h (exp (Random.State.float rng 12. -. 10.))
    done;
    h
  in
  let a = mk () and b = mk () and c = mk () in
  let l = merge (merge a b) c in
  let r = merge a (merge b c) in
  check Alcotest.int "count" (Telemetry.Histogram.count l) (Telemetry.Histogram.count r);
  check (Alcotest.float 1e-12) "min" (Telemetry.Histogram.min_value l)
    (Telemetry.Histogram.min_value r);
  check (Alcotest.float 1e-12) "max" (Telemetry.Histogram.max_value l)
    (Telemetry.Histogram.max_value r);
  (* bucket counts are ints, so quantiles agree exactly *)
  List.iter
    (fun q ->
      check (Alcotest.float 0.)
        (Printf.sprintf "quantile %.3f" q)
        (Telemetry.Histogram.quantile l q) (Telemetry.Histogram.quantile r q))
    [ 0.01; 0.5; 0.999 ];
  (* sums are float additions: associative only up to rounding *)
  check Alcotest.bool "sum close" true
    (Float.abs (Telemetry.Histogram.sum l -. Telemetry.Histogram.sum r)
     < 1e-9 *. Float.abs (Telemetry.Histogram.sum l))

let registry_merge () =
  let a = Telemetry.Registry.create () and b = Telemetry.Registry.create () in
  Telemetry.Registry.Counter.add (Telemetry.Registry.counter a "n") 3;
  Telemetry.Registry.Counter.add (Telemetry.Registry.counter b "n") 4;
  Telemetry.Registry.Gauge.set (Telemetry.Registry.gauge b "g") 1.5;
  let into = Telemetry.Registry.create () in
  Telemetry.Registry.merge_into ~into a;
  Telemetry.Registry.merge_into ~into b;
  check Alcotest.int "counters sum" 7 (Telemetry.Registry.counter_value into "n");
  check (Alcotest.float 1e-12) "gauge carried" 1.5 (gauge_value into "g");
  (* sources are unchanged *)
  check Alcotest.int "source a intact" 3 (Telemetry.Registry.counter_value a "n")

(* ---- JSON ---- *)

let json_roundtrip () =
  let reg = Telemetry.Registry.create () in
  Telemetry.Registry.Counter.add (Telemetry.Registry.counter reg "c.packets") 12345;
  Telemetry.Registry.Gauge.set (Telemetry.Registry.gauge reg "g.ratio") 0.1;
  Telemetry.Registry.Gauge.set (Telemetry.Registry.gauge reg "g.level") (-3.75);
  Telemetry.Registry.Counter.add
    (Telemetry.Registry.counter reg ~labels:[ ("vip", "20.0.0.1:80") ] "c.per_vip")
    7;
  let h = Telemetry.Registry.histogram reg "h.latency" in
  List.iter (Telemetry.Histogram.observe h) [ 1e-6; 2e-5; 3e-4; 0.7e-6; 1e-3 ];
  let s = Telemetry.Registry.snapshot reg in
  (* the pretty-printed JSON parses back to the snapshot's JSON value,
     every float bit-exact *)
  (match Telemetry.Json.parse (Telemetry.Snapshot.to_json s) with
   | Error e -> Alcotest.failf "parse failed: %s" e
   | Ok j ->
     check Alcotest.bool "roundtrip equal" true (j = Telemetry.Snapshot.to_json_value s));
  (* snapshot accessors *)
  check (Alcotest.option Alcotest.int) "counter" (Some 12345)
    (Snap.counter s "c.packets");
  (match Snap.histogram s "h.latency" with
   | None -> Alcotest.fail "histogram missing from snapshot"
   | Some sum -> check Alcotest.int "histogram count" 5 sum.Telemetry.Snapshot.count)

let json_parser_hostility () =
  List.iter
    (fun s ->
      match Telemetry.Json.parse s with
      | Ok _ -> Alcotest.failf "expected parse error on %S" s
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "nul"; "\"unterminated"; "1 2" ];
  (match Telemetry.Json.parse "{\"a\": [1, 2.5, \"x\\n\", true, null]}" with
   | Error e -> Alcotest.failf "parse failed: %s" e
   | Ok v ->
     check Alcotest.bool "member" true (Telemetry.Json.member "a" v <> None));
  (* non-finite floats serialize as null rather than invalid JSON *)
  check Alcotest.string "nan is null" "null" (Telemetry.Json.to_string (Telemetry.Json.Float Float.nan))

(* ---- constant memory ---- *)

let million_observations_constant_memory () =
  let h = Telemetry.Histogram.create () in
  for i = 1 to 10_000 do
    Telemetry.Histogram.observe h (1e-6 *. float_of_int i)
  done;
  let words_before = Obj.reachable_words (Obj.repr h) in
  for i = 1 to 1_000_000 do
    Telemetry.Histogram.observe h (1e-7 *. float_of_int i)
  done;
  check Alcotest.int "1.01M observations" 1_010_000 (Telemetry.Histogram.count h);
  check Alcotest.int "footprint unchanged" words_before (Obj.reachable_words (Obj.repr h))

(* The driver itself: a run with >=1M probes must not return a result
   that grows with the probe count (the old float-list accumulator did). *)
let driver_constant_memory () =
  let dip = Netcore.Endpoint.v4 10 0 0 1 20 in
  let vip = Netcore.Endpoint.v4 20 0 0 1 80 in
  let stub () =
    let reg = Telemetry.Registry.create () in
    {
      Lb.Balancer.name = "stub";
      advance = (fun ~now:_ -> ());
      process =
        (fun ~now:_ _ -> { Lb.Balancer.dip = Some dip; location = Lb.Balancer.Asic });
      update = (fun ~now:_ ~vip:_ _ -> ());
      connections = (fun () -> 0);
      metrics = (fun () -> reg);
      disturb = (fun ~now:_ _ -> ());
    }
  in
  let flows n =
    List.init n (fun i ->
        {
          Simnet.Flow.id = i;
          tuple =
            Netcore.Five_tuple.make
              ~src:(Netcore.Endpoint.v4 1 2 ((i / 60000) + 1) 4 (1 + (i mod 60000)))
              ~dst:vip ~proto:Netcore.Protocol.Tcp;
          start = 0.;
          duration = 100.;
          bytes_per_sec = 1000.;
        })
  in
  let run n =
    Harness.Driver.run ~balancer:(stub ())
      ~trace:(Harness.Packed_trace.compile ~probe_interval:0.1 ~horizon:100. (flows n))
      ~updates:[] ()
  in
  let small = run 10 in
  let large = run 1_000 in
  check Alcotest.bool ">=1M probes" true (large.Harness.Driver.packets >= 1_000_000);
  let words r = Obj.reachable_words (Obj.repr r) in
  (* identical metric sets -> near-identical footprint; the old list kept
     ~3 words per probe, which would put [large] ~3M words above [small] *)
  check Alcotest.bool "result footprint independent of probe count" true
    (words large < words small + 1024)

(* ---- integration with the switch ---- *)

let switch_stats_match_registry () =
  let vip = Netcore.Endpoint.v4 20 0 0 1 80 in
  let pool = Lb.Dip_pool.of_list (List.init 8 (fun i -> Netcore.Endpoint.v4 10 0 0 (i + 1) 20)) in
  let sw = Silkroad.Switch.create Silkroad.Config.default in
  Silkroad.Switch.add_vip sw vip pool;
  let flows =
    List.init 300 (fun i ->
        {
          Simnet.Flow.id = i;
          tuple =
            Netcore.Five_tuple.make
              ~src:(Netcore.Endpoint.v4 1 2 3 4 (1000 + i))
              ~dst:vip ~proto:Netcore.Protocol.Tcp;
          start = float_of_int i *. 0.05;
          duration = 30.;
          bytes_per_sec = 1000.;
        })
  in
  let updates =
    [ (5., vip, Lb.Balancer.Dip_add (Netcore.Endpoint.v4 10 0 0 99 20));
      (12., vip, Lb.Balancer.Dip_remove (Netcore.Endpoint.v4 10 0 0 99 20)) ]
  in
  let r =
    Harness.Driver.run ~balancer:(Silkroad.Switch.balancer sw)
      ~trace:(Harness.Packed_trace.compile ~horizon:60. flows) ~updates ()
  in
  let stats = Silkroad.Switch.stats sw in
  let reg = Silkroad.Switch.metrics sw in
  let cv name = Telemetry.Registry.counter_value reg name in
  check Alcotest.int "asic_packets" stats.Silkroad.Switch.asic_packets (cv "switch.asic_packets");
  check Alcotest.int "cpu_packets" stats.Silkroad.Switch.cpu_packets (cv "switch.cpu_packets");
  check Alcotest.int "dropped_packets" stats.Silkroad.Switch.dropped_packets
    (cv "switch.dropped_packets");
  check Alcotest.int "connections_seen" stats.Silkroad.Switch.connections_seen
    (cv "switch.connections_seen");
  check Alcotest.int "false_hits" stats.Silkroad.Switch.false_hits (cv "conn_table.false_hits");
  check Alcotest.int "collision_repairs" stats.Silkroad.Switch.collision_repairs
    (cv "conn_table.repairs");
  check Alcotest.int "updates_completed" stats.Silkroad.Switch.updates_completed
    (cv "switch.updates_completed");
  (* the uniform balancer pair covers every forwarded/dropped packet *)
  check Alcotest.int "lb.packets + lb.dropped = driver packets"
    r.Harness.Driver.packets
    (cv "lb.packets" + cv "lb.dropped_packets");
  (* the driver's merged snapshot carries the same values *)
  check (Alcotest.option Alcotest.int) "snapshot matches registry"
    (Some stats.Silkroad.Switch.asic_packets)
    (Snap.counter r.Harness.Driver.telemetry "switch.asic_packets");
  (* satellite: collision repairs are accounted against the CPU queue *)
  if stats.Silkroad.Switch.collision_repairs > 0 then
    check Alcotest.bool "repairs completed through cpu queue" true
      (cv "switch.repairs_completed" > 0)

let driver_latency_agrees_with_exact () =
  (* drive the real switch, then check the snapshot's latency quantiles
     against exact percentiles of a parallel exact recording *)
  let vip = Netcore.Endpoint.v4 20 0 0 1 80 in
  let dip = Netcore.Endpoint.v4 10 0 0 1 20 in
  (* a balancer alternating asic/slb locations exercises both latency
     distributions *)
  let i = ref 0 in
  let reg = Telemetry.Registry.create () in
  let b =
    {
      Lb.Balancer.name = "alt";
      advance = (fun ~now:_ -> ());
      process =
        (fun ~now:_ _ ->
          incr i;
          let location = if !i mod 4 = 0 then Lb.Balancer.Slb else Lb.Balancer.Asic in
          { Lb.Balancer.dip = Some dip; location });
      update = (fun ~now:_ ~vip:_ _ -> ());
      connections = (fun () -> 0);
      metrics = (fun () -> reg);
      disturb = (fun ~now:_ _ -> ());
    }
  in
  let flows =
    List.init 200 (fun i ->
        {
          Simnet.Flow.id = i;
          tuple =
            Netcore.Five_tuple.make
              ~src:(Netcore.Endpoint.v4 9 8 7 6 (2000 + i))
              ~dst:vip ~proto:Netcore.Protocol.Tcp;
          start = 0.;
          duration = 200.;
          bytes_per_sec = 100.;
        })
  in
  let r =
    Harness.Driver.run ~balancer:b
      ~trace:(Harness.Packed_trace.compile ~horizon:200. flows) ~updates:[] ()
  in
  (* median probe is ASIC-handled: the fixed sub-microsecond latency *)
  check Alcotest.bool "median is asic latency within 5%" true
    (Float.abs (r.Harness.Driver.latency_median -. Harness.Driver.asic_latency)
     /. Harness.Driver.asic_latency
     < 0.05);
  (* p99 must be in the SLB band (50us..1ms-ish), far above the median *)
  check Alcotest.bool "p99 in slb band" true
    (r.Harness.Driver.latency_p99 > 20e-6 && r.Harness.Driver.latency_p99 < 5e-3);
  match Snap.histogram r.Harness.Driver.telemetry "driver.latency" with
  | None -> Alcotest.fail "driver.latency missing"
  | Some s ->
    check Alcotest.int "histogram saw every probe" r.Harness.Driver.packets
      s.Telemetry.Snapshot.count

let suites =
  [
    ( "telemetry.registry",
      [
        tc "counters and gauges" `Quick registry_basics;
        tc "labels" `Quick registry_labels;
        tc "kind mismatch" `Quick registry_kind_mismatch;
        tc "merge" `Quick registry_merge;
      ] );
    ( "telemetry.histogram",
      [
        tc "quantiles within 5% of exact" `Quick quantile_accuracy;
        tc "edge cases" `Quick quantile_edge_cases;
        tc "split+merge = whole" `Quick split_merge_equals_whole;
        tc "merge associativity" `Quick merge_associativity;
        tc "1M observations, constant memory" `Quick million_observations_constant_memory;
      ] );
    ( "telemetry.json",
      [
        tc "snapshot roundtrip" `Quick json_roundtrip;
        tc "parser rejects garbage" `Quick json_parser_hostility;
      ] );
    ( "telemetry.integration",
      [
        tc "switch stats = registry" `Quick switch_stats_match_registry;
        tc "driver latency quantiles" `Quick driver_latency_agrees_with_exact;
        tc "driver constant memory @1M probes" `Slow driver_constant_memory;
      ] );
  ]

(* Tests for the simulation substrate: PRNG, distributions, statistics,
   workload generation, update traces, cluster populations. *)

let check = Alcotest.check
let tc = Alcotest.test_case

(* ---------- Prng ---------- *)

let prng_deterministic () =
  let a = Simnet.Prng.create ~seed:1 and b = Simnet.Prng.create ~seed:1 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Simnet.Prng.int64 a) (Simnet.Prng.int64 b)
  done

let prng_split_independent () =
  let a = Simnet.Prng.create ~seed:1 in
  let child = Simnet.Prng.split a in
  check Alcotest.bool "diverged" true (not (Int64.equal (Simnet.Prng.int64 a) (Simnet.Prng.int64 child)))

let prng_copy () =
  let a = Simnet.Prng.create ~seed:3 in
  ignore (Simnet.Prng.int64 a);
  let b = Simnet.Prng.copy a in
  check Alcotest.int64 "copies agree" (Simnet.Prng.int64 a) (Simnet.Prng.int64 b)

let qcheck_prng_int_range =
  QCheck.Test.make ~name:"Prng.int in range" ~count:300
    QCheck.(pair small_int (int_range 1 1_000_000))
    (fun (seed, n) ->
      let rng = Simnet.Prng.create ~seed in
      let v = Simnet.Prng.int rng n in
      v >= 0 && v < n)

let prng_uniform_mean () =
  let rng = Simnet.Prng.create ~seed:5 in
  let n = 20_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Simnet.Prng.uniform rng
  done;
  let mean = !sum /. float_of_int n in
  check Alcotest.bool "mean near 0.5" true (abs_float (mean -. 0.5) < 0.01)

let prng_exponential_mean () =
  let rng = Simnet.Prng.create ~seed:6 in
  let n = 20_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Simnet.Prng.exponential rng ~mean:4.
  done;
  let mean = !sum /. float_of_int n in
  check Alcotest.bool "mean near 4" true (abs_float (mean -. 4.) < 0.2)

let prng_choose_weighted () =
  let rng = Simnet.Prng.create ~seed:7 in
  let counts = Hashtbl.create 4 in
  for _ = 1 to 10_000 do
    let v = Simnet.Prng.choose_weighted rng [ ("a", 9.); ("b", 1.) ] in
    Hashtbl.replace counts v (1 + Option.value ~default:0 (Hashtbl.find_opt counts v))
  done;
  let a = Option.value ~default:0 (Hashtbl.find_opt counts "a") in
  check Alcotest.bool "ratio ~9:1" true (a > 8_700 && a < 9_300)

(* ---------- Dist ---------- *)

let dist_lognormal_quantiles () =
  let d = Simnet.Dist.lognormal_of_quantiles ~median:180. ~p99:6000. in
  let rng = Simnet.Prng.create ~seed:8 in
  let samples = List.init 20_000 (fun _ -> Simnet.Dist.sample d rng) in
  let med = Simnet.Stats.median samples in
  let p99 = Simnet.Stats.p99 samples in
  check Alcotest.bool
    (Printf.sprintf "median %.0f within 10%%" med)
    true
    (abs_float (med -. 180.) /. 180. < 0.1);
  check Alcotest.bool (Printf.sprintf "p99 %.0f within 25%%" p99) true
    (abs_float (p99 -. 6000.) /. 6000. < 0.25)

let dist_constant_truncated () =
  let rng = Simnet.Prng.create ~seed:10 in
  check (Alcotest.float 1e-9) "constant" 5. (Simnet.Dist.sample (Simnet.Dist.constant 5.) rng);
  let d = Simnet.Dist.truncated (Simnet.Dist.constant 100.) ~lo:0. ~hi:10. in
  check (Alcotest.float 1e-9) "truncated" 10. (Simnet.Dist.sample d rng)

(* ---------- Stats ---------- *)

let stats_percentiles () =
  let xs = [ 1.; 2.; 3.; 4.; 5. ] in
  check (Alcotest.float 1e-9) "median" 3. (Simnet.Stats.median xs);
  check (Alcotest.float 1e-9) "p0" 1. (Simnet.Stats.percentile xs 0.);
  check (Alcotest.float 1e-9) "p100" 5. (Simnet.Stats.percentile xs 100.);
  check (Alcotest.float 1e-9) "p25" 2. (Simnet.Stats.percentile xs 25.);
  check (Alcotest.float 1e-9) "single" 7. (Simnet.Stats.percentile [ 7. ] 50.)

let stats_cdf () =
  let xs = [ 1.; 2.; 3.; 4. ] in
  check (Alcotest.list (Alcotest.float 1e-9)) "points" [ 1.; 0.5; 0. ]
    (List.map (Simnet.Stats.ccdf_at xs) [ 0.; 2.; 4. ]);
  check (Alcotest.float 1e-9) "empty" 0. (Simnet.Stats.ccdf_at [] 1.)

let qcheck_percentile_bounds =
  QCheck.Test.make ~name:"percentile within min/max" ~count:200
    QCheck.(pair (list_of_size (Gen.int_range 1 50) (float_bound_inclusive 1000.)) (float_bound_inclusive 100.))
    (fun (xs, p) ->
      let v = Simnet.Stats.percentile xs p in
      let mn = List.fold_left Float.min infinity xs in
      let mx = List.fold_left Float.max neg_infinity xs in
      v >= mn -. 1e-9 && v <= mx +. 1e-9)

(* ---------- Workload ---------- *)

let workload_rate () =
  let rng = Simnet.Prng.create ~seed:12 in
  let vip = Netcore.Endpoint.v4 20 0 0 1 80 in
  let p = Simnet.Workload.profile ~vip ~new_conns_per_sec:100. () in
  let flows = Simnet.Workload.take_until ~horizon:100. (Simnet.Workload.arrivals ~rng ~id_base:0 p) in
  let n = List.length flows in
  check Alcotest.bool (Printf.sprintf "%d flows ~ 10000" n) true (n > 9_000 && n < 11_000);
  (* starts are increasing and flows target the VIP *)
  let rec increasing = function
    | a :: (b :: _ as rest) -> a.Simnet.Flow.start <= b.Simnet.Flow.start && increasing rest
    | [ _ ] | [] -> true
  in
  check Alcotest.bool "sorted" true (increasing flows);
  List.iter
    (fun f -> check Alcotest.bool "vip dst" true (Netcore.Endpoint.equal f.Simnet.Flow.tuple.Netcore.Five_tuple.dst vip))
    flows

let workload_duration_median () =
  let rng = Simnet.Prng.create ~seed:13 in
  let vip = Netcore.Endpoint.v4 20 0 0 1 80 in
  let p = Simnet.Workload.profile ~duration:Simnet.Workload.hadoop_durations ~vip ~new_conns_per_sec:50. () in
  let flows = Simnet.Workload.take_until ~horizon:200. (Simnet.Workload.arrivals ~rng ~id_base:0 p) in
  let durations = List.map (fun f -> f.Simnet.Flow.duration) flows in
  let med = Simnet.Stats.median durations in
  check Alcotest.bool (Printf.sprintf "hadoop median %.1f ~ 10s" med) true (med > 8. && med < 12.)

let flow_accessors () =
  let tuple =
    Netcore.Five_tuple.make ~src:(Netcore.Endpoint.v4 1 2 3 4 1000)
      ~dst:(Netcore.Endpoint.v4 20 0 0 1 80) ~proto:Netcore.Protocol.Tcp
  in
  let f = { Simnet.Flow.id = 1; tuple; start = 10.; duration = 5.; bytes_per_sec = 100. } in
  check (Alcotest.float 1e-9) "finish" 15. (Simnet.Flow.finish f)

(* ---------- Update_trace ---------- *)

let trace_rate_and_balance () =
  let rng = Simnet.Prng.create ~seed:14 in
  let events =
    Simnet.Update_trace.generate ~rng ~updates_per_min:30. ~horizon:600. ~pool_size:16
  in
  let n = List.length events in
  (* 30/min for 10 min = ~300 *)
  check Alcotest.bool (Printf.sprintf "%d events ~300" n) true (n > 220 && n < 380);
  (* times sorted, dips in range *)
  let rec sorted = function
    | a :: (b :: _ as rest) ->
      a.Simnet.Update_trace.time <= b.Simnet.Update_trace.time && sorted rest
    | [ _ ] | [] -> true
  in
  check Alcotest.bool "sorted" true (sorted events);
  List.iter
    (fun e ->
      check Alcotest.bool "dip in range" true
        (e.Simnet.Update_trace.dip >= 0 && e.Simnet.Update_trace.dip < 16))
    events

let trace_remove_add_consistency () =
  (* every Add re-adds a previously removed DIP; a DIP is never removed
     twice without an Add in between *)
  let rng = Simnet.Prng.create ~seed:15 in
  let events =
    Simnet.Update_trace.generate ~rng ~updates_per_min:20. ~horizon:1200. ~pool_size:8
  in
  let up = Array.make 8 true in
  List.iter
    (fun e ->
      match e.Simnet.Update_trace.kind with
      | Simnet.Update_trace.Remove ->
        check Alcotest.bool "removing a live dip" true up.(e.Simnet.Update_trace.dip);
        up.(e.Simnet.Update_trace.dip) <- false
      | Simnet.Update_trace.Add ->
        check Alcotest.bool "adding a downed dip" true (not up.(e.Simnet.Update_trace.dip));
        up.(e.Simnet.Update_trace.dip) <- true)
    events

let trace_pool_never_below_half () =
  let rng = Simnet.Prng.create ~seed:16 in
  let events =
    Simnet.Update_trace.generate ~rng ~updates_per_min:60. ~horizon:1200. ~pool_size:8
  in
  let up = ref 8 in
  List.iter
    (fun e ->
      (match e.Simnet.Update_trace.kind with
       | Simnet.Update_trace.Remove -> decr up
       | Simnet.Update_trace.Add -> incr up);
      check Alcotest.bool "at least 3 alive" true (!up >= 3))
    events

(* The documented invariant, under adversarial seeds and rates: the live
   pool never drops below half its size (rounded down), whatever update
   storm the generator is asked for. *)
let qcheck_trace_pool_floor =
  QCheck.Test.make ~name:"Update_trace.generate never drains pool below half" ~count:150
    QCheck.(
      triple (int_range 0 1_000_000) (int_range 2 32) (float_range 1. 600.))
    (fun (seed, pool_size, updates_per_min) ->
      let rng = Simnet.Prng.create ~seed in
      let events =
        Simnet.Update_trace.generate ~rng ~updates_per_min ~horizon:900. ~pool_size
      in
      let floor_size = pool_size / 2 in
      let up = ref pool_size in
      List.for_all
        (fun (e : Simnet.Update_trace.event) ->
          (match e.Simnet.Update_trace.kind with
           | Simnet.Update_trace.Remove -> decr up
           | Simnet.Update_trace.Add -> incr up);
          !up >= floor_size && !up <= pool_size)
        events)

let trace_cause_mix () =
  let total = List.fold_left (fun acc (_, w) -> acc +. w) 0. Simnet.Update_trace.cause_mix in
  check (Alcotest.float 0.5) "weights sum to 100" 100. total;
  let upgrade_w = List.assoc Simnet.Update_trace.Upgrade Simnet.Update_trace.cause_mix in
  check (Alcotest.float 1e-9) "82.7% upgrades" 82.7 upgrade_w

let trace_rolling_reboot () =
  let rng = Simnet.Prng.create ~seed:17 in
  let events = Simnet.Update_trace.rolling_reboot ~batch:2 ~period:300. ~rng ~start:0. ~pool_size:6 () in
  (* 6 dips = 6 removes + 6 adds *)
  check Alcotest.int "12 events" 12 (List.length events);
  let removes =
    List.filter (fun e -> e.Simnet.Update_trace.kind = Simnet.Update_trace.Remove) events
  in
  (* batches at t=0, 300, 600 *)
  let times = List.sort_uniq Float.compare (List.map (fun e -> e.Simnet.Update_trace.time) removes) in
  check (Alcotest.list (Alcotest.float 1e-9)) "batch times" [ 0.; 300.; 600. ] times

let trace_count_per_minute () =
  let events =
    [ { Simnet.Update_trace.time = 10.; dip = 0; kind = Simnet.Update_trace.Remove;
        cause = Simnet.Update_trace.Upgrade };
      { Simnet.Update_trace.time = 70.; dip = 0; kind = Simnet.Update_trace.Add;
        cause = Simnet.Update_trace.Upgrade } ]
  in
  let counts = Simnet.Update_trace.count_per_minute events ~horizon:120. in
  check Alcotest.int "minute 0" 1 counts.(0);
  check Alcotest.int "minute 1" 1 counts.(1)

(* ---------- Cluster ---------- *)

let cluster_population () =
  let rng = Simnet.Prng.create ~seed:18 in
  let pop = Simnet.Cluster.population ~n:96 ~rng () in
  check Alcotest.int "96 clusters" 96 (List.length pop);
  let backends = List.filter (fun c -> c.Simnet.Cluster.cls = Simnet.Cluster.Backend) pop in
  check Alcotest.int "a third are backends" 32 (List.length backends);
  List.iter
    (fun c ->
      check Alcotest.bool "positive tors" true (c.Simnet.Cluster.n_tors > 0);
      check Alcotest.bool "median <= p99" true
        (c.Simnet.Cluster.conns_per_tor_median <= c.Simnet.Cluster.conns_per_tor_p99);
      check Alcotest.bool "backend=ipv6" true
        (c.Simnet.Cluster.ipv6 = (c.Simnet.Cluster.cls = Simnet.Cluster.Backend)))
    pop

let cluster_scale_anchor () =
  (* the busiest clusters should be around 10M connections per ToR *)
  let rng = Simnet.Prng.create ~seed:19 in
  let pop = Simnet.Cluster.population ~n:96 ~rng () in
  let max_conns =
    List.fold_left (fun acc c -> Float.max acc c.Simnet.Cluster.conns_per_tor_p99) 0. pop
  in
  check Alcotest.bool
    (Printf.sprintf "max %.1fM in [5M, 60M]" (max_conns /. 1e6))
    true
    (max_conns > 5e6 && max_conns < 6e7)

(* ---------- Trace_io ---------- *)

let trace_flow_roundtrip () =
  let rng = Simnet.Prng.create ~seed:21 in
  let vip = Netcore.Endpoint.v4 20 0 0 1 80 in
  let p = Simnet.Workload.profile ~vip ~new_conns_per_sec:50. () in
  let flows = Simnet.Workload.take_until ~horizon:10. (Simnet.Workload.arrivals ~rng ~id_base:0 p) in
  let path = Filename.temp_file "silkroad" ".flows" in
  Simnet.Trace_io.save_flows path flows;
  (match Simnet.Trace_io.load_flows path with
   | Ok loaded ->
     check Alcotest.int "count" (List.length flows) (List.length loaded);
     List.iter2
       (fun a b ->
         check Alcotest.int "id" a.Simnet.Flow.id b.Simnet.Flow.id;
         check Alcotest.bool "tuple" true
           (Netcore.Five_tuple.equal a.Simnet.Flow.tuple b.Simnet.Flow.tuple);
         check Alcotest.bool "start, duration and rate exact" true
           (Float.equal a.Simnet.Flow.start b.Simnet.Flow.start
           && Float.equal a.Simnet.Flow.duration b.Simnet.Flow.duration
           && Float.equal a.Simnet.Flow.bytes_per_sec b.Simnet.Flow.bytes_per_sec))
       flows loaded
   | Error e -> Alcotest.fail e);
  Sys.remove path

let trace_rejects_garbage () =
  let path = Filename.temp_file "silkroad" ".bad" in
  let oc = open_out path in
  output_string oc "# comment\nflow 1 1.2.3.4:5 20.0.0.1:80 0.0 1.0 10.0\nflow oops\n";
  close_out oc;
  (match Simnet.Trace_io.load_flows path with
   | Error msg -> check Alcotest.bool "names the line" true (String.length msg > 0)
   | Ok _ -> Alcotest.fail "garbage accepted");
  Sys.remove path

let trace_line_errors () =
  check Alcotest.bool "not a flow" true (Result.is_error (Simnet.Trace_io.flow_of_line "update 1"));
  check Alcotest.bool "bad endpoint" true
    (Result.is_error (Simnet.Trace_io.flow_of_line "flow 1 nonsense 20.0.0.1:80 0 1 1"))

(* A non-finite or negative field would give a replay an infinite or
   undefined horizon: an inf duration hung serve's compile, a nan one
   dropped every flow. *)
let trace_rejects_non_finite () =
  let line start duration rate =
    Printf.sprintf "flow 1 10.0.0.1:1000 10.1.0.1:80 %s %s %s" start duration rate
  in
  List.iter
    (fun (start, duration, rate) ->
      let l = line start duration rate in
      check Alcotest.bool l true (Result.is_error (Simnet.Trace_io.flow_of_line l)))
    [
      ("0", "inf", "1000");
      ("0", "nan", "1000");
      ("0", "-inf", "1000");
      ("inf", "1", "1000");
      ("nan", "1", "1000");
      ("-1", "1", "1000");
      ("-inf", "1", "1000");
      ("0", "1", "inf");
      ("0", "1", "nan");
      ("0", "-1", "1000");
      ("0", "1", "-1");
    ];
  check Alcotest.bool "zero start and duration accepted" true
    (Result.is_ok (Simnet.Trace_io.flow_of_line (line "0" "0" "0")));
  let path = Filename.temp_file "silkroad" ".inf" in
  Out_channel.with_open_text path (fun oc ->
      output_string oc "# one good line, then an infinite duration\n";
      output_string oc (line "0" "1" "1000" ^ "\n");
      output_string oc (line "0" "inf" "1000" ^ "\n"));
  (match Simnet.Trace_io.load_flows path with
   | Error msg ->
     check Alcotest.string "line-numbered" "line 3: start, duration and rate must be finite" msg
   | Ok _ -> Alcotest.fail "inf duration accepted");
  Sys.remove path

let qcheck_trace_line_roundtrip =
  QCheck.Test.make ~name:"trace line print/parse roundtrip" ~count:200
    QCheck.(quad small_int (pair (int_bound 255) (int_range 1 65535))
              (pair (float_bound_inclusive 1000.) (float_bound_inclusive 500.))
              (float_bound_inclusive 1e6))
    (fun (id, (oct, port), (start, duration), rate) ->
      let f =
        {
          Simnet.Flow.id;
          tuple =
            Netcore.Five_tuple.make
              ~src:(Netcore.Endpoint.v4 1 2 oct 4 port)
              ~dst:(Netcore.Endpoint.v4 20 0 0 1 80)
              ~proto:Netcore.Protocol.Tcp;
          start;
          duration;
          bytes_per_sec = rate;
        }
      in
      match Simnet.Trace_io.flow_of_line (Simnet.Trace_io.flow_to_line f) with
      | Ok f' ->
        f'.Simnet.Flow.id = f.Simnet.Flow.id
        && Netcore.Five_tuple.equal f'.Simnet.Flow.tuple f.Simnet.Flow.tuple
        && Float.equal f'.Simnet.Flow.start f.Simnet.Flow.start
        && Float.equal f'.Simnet.Flow.duration f.Simnet.Flow.duration
        && Float.equal f'.Simnet.Flow.bytes_per_sec f.Simnet.Flow.bytes_per_sec
      | Error _ -> false)

let suites =
  [
    ( "simnet.prng",
      [
        tc "deterministic" `Quick prng_deterministic;
        tc "split" `Quick prng_split_independent;
        tc "copy" `Quick prng_copy;
        tc "uniform mean" `Quick prng_uniform_mean;
        tc "exponential mean" `Quick prng_exponential_mean;
        tc "weighted choice" `Quick prng_choose_weighted;
        QCheck_alcotest.to_alcotest qcheck_prng_int_range;
      ] );
    ( "simnet.dist",
      [
        tc "lognormal quantiles" `Quick dist_lognormal_quantiles;
        tc "constant/truncated" `Quick dist_constant_truncated;
      ] );
    ( "simnet.stats",
      [
        tc "percentiles" `Quick stats_percentiles;
        tc "cdf" `Quick stats_cdf;
        QCheck_alcotest.to_alcotest qcheck_percentile_bounds;
      ] );
    ( "simnet.workload",
      [
        tc "arrival rate" `Quick workload_rate;
        tc "hadoop median" `Quick workload_duration_median;
        tc "flow accessors" `Quick flow_accessors;
      ] );
    ( "simnet.update_trace",
      [
        tc "rate & ranges" `Quick trace_rate_and_balance;
        tc "remove/add consistency" `Quick trace_remove_add_consistency;
        tc "pool floor" `Quick trace_pool_never_below_half;
        QCheck_alcotest.to_alcotest qcheck_trace_pool_floor;
        tc "cause mix" `Quick trace_cause_mix;
        tc "rolling reboot" `Quick trace_rolling_reboot;
        tc "count per minute" `Quick trace_count_per_minute;
      ] );
    ( "simnet.trace_io",
      [
        tc "flow roundtrip" `Quick trace_flow_roundtrip;
        tc "rejects garbage" `Quick trace_rejects_garbage;
        tc "line errors" `Quick trace_line_errors;
        tc "rejects non-finite and negative" `Quick trace_rejects_non_finite;
        QCheck_alcotest.to_alcotest qcheck_trace_line_roundtrip;
      ] );
    ( "simnet.cluster",
      [
        tc "population" `Quick cluster_population;
        tc "scale anchors" `Quick cluster_scale_anchor;
      ] );
  ]

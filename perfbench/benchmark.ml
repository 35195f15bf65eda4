(* perfbench: the repository's benchmark. Three workloads, end-to-end
   metrics timed with a wall clock around the program's public entry
   points, and a separate traced run that times every layer it crosses.

     benchmark.exe [--workload NAME|all] [--seed N] [--seconds S]
                   [--repeat R] [--trace] [--scale full|tiny] [--json FILE]

   One workload per process, on one domain. Set-up runs five times (its
   median is setup_s); then fresh repetitions of the measured section
   run until --seconds have passed (at least three), or exactly
   --repeat R; pkt_per_s is the upper decile of their rates, the other
   timings their medians. --trace instead runs the per-layer
   measurement. Every metric prints as a "workload metric value unit"
   line; the last line of standard output is one JSON object with
   correct / attempted / failed / metrics. Exit status 1 when a
   correctness check fails: repetitions disagreeing, a rejected serve
   command, a vacuous failover, a traced run whose telemetry differs
   from the untraced run's, or spans that exceed the traced wall.

   --scale tiny with no --workload is the self-test: every workload at
   smoke size, untraced and traced, checked against the metric names in
   BENCHMARK.json. *)

module W = Workloads
module Json = Telemetry.Json
module Registry = Telemetry.Registry
module Histogram = Telemetry.Histogram

let default_seed = 7011
let setup_reps = 5
let min_reps = 3

type opts = {
  target : string;  (** a workload name, or "all" *)
  seed : int;
  seconds : float;
  repeat : int option;
  trace : bool;
  scale : W.scale;
  json : string option;
}

(* ----- reporting ----- *)

type metric = {
  name : string;
  value : float;
  unit_ : string;
}

let m name unit_ value = { name; value; unit_ }

type report = {
  workload : W.t;
  metrics : metric list;  (** the contract's metrics for this mode *)
  extra : metric list;  (** printed and saved, not part of the contract *)
  attempted : int;  (** connections judged *)
  failed : int;  (** of which broken *)
  problems : string list;
  repetitions : int;
  spans : Json.t list;
}

let commit () = Option.value (Sys.getenv_opt "PERFBENCH_COMMIT") ~default:"unknown"

let provenance opts ~repetitions =
  Json.Obj
    [ ("cores", Json.Int (Domain.recommended_domain_count ()));
      ("ocaml_version", Json.String Sys.ocaml_version); ("commit", Json.String (commit ()));
      ("seed", Json.Int opts.seed); ("repetitions", Json.Int repetitions);
      ("scale", Json.String (match opts.scale with W.Full -> "full" | W.Tiny -> "tiny")) ]

let metrics_json ms =
  Json.Obj
    (List.map
       (fun x ->
         (x.name, Json.Obj [ ("value", Json.Float x.value); ("unit", Json.String x.unit_) ]))
       ms)

let emit opts r =
  List.iter
    (fun x -> Printf.printf "%s %s %.6g %s\n" r.workload.W.name x.name x.value x.unit_)
    (r.metrics @ r.extra);
  List.iter (fun p -> Printf.printf "%s FAILED: %s\n" r.workload.W.name p) r.problems;
  let correct = r.problems = [] in
  (match opts.json with
   | None -> ()
   | Some path ->
     let doc =
       Json.Obj
         [ ("workload", Json.String r.workload.W.name); ("trace", Json.Bool opts.trace);
           ("provenance", provenance opts ~repetitions:r.repetitions);
           ("correct", Json.Bool correct); ("attempted", Json.Int r.attempted);
           ("failed", Json.Int r.failed);
           ("problems", Json.List (List.map (fun p -> Json.String p) r.problems));
           ("metrics", metrics_json r.metrics); ("extra", metrics_json r.extra);
           ("spans", Json.List r.spans) ]
     in
     Out_channel.with_open_text path (fun oc ->
         output_string oc (Json.to_string_pretty doc);
         output_char oc '\n'));
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("correct", Json.Bool correct); ("attempted", Json.Int r.attempted);
            ("failed", Json.Int r.failed); ("metrics", metrics_json r.metrics) ]));
  if correct then 0 else 1

(* ----- checks shared by both modes ----- *)

let counts_equal (a : Harness.Replay.counts) (b : Harness.Replay.counts) =
  a.c_packets = b.c_packets && a.c_dropped = b.c_dropped && a.c_connections = b.c_connections
  && a.c_broken = b.c_broken && a.c_violations = b.c_violations

let agree ~what (a : W.rep) (b : W.rep) =
  if counts_equal a.W.counts b.W.counts && String.equal a.W.telemetry b.W.telemetry then []
  else [ what ^ ": PCC counts or switch telemetry differ" ]

let sorted_array l = Array.of_list (List.sort Float.compare l)

let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0. else sorted.(Int.min (n - 1) (int_of_float (q *. float_of_int n)))

(* ----- end-to-end measurement ----- *)

let measure opts w =
  (* Every timed section (a set-up, a repetition) sits between two passes
     of the reference kernel; [rescaled] turns its wall time into the
     time it would take on the nominal host, using the mean of the two
     passes. The first pass only warms the kernel's table. *)
  ignore (Reference.time ());
  let last_ref = ref (Reference.time ()) and refs = ref [] in
  let rescaled wall_s =
    let after = Reference.time () in
    let reference = (!last_ref +. after) /. 2. in
    last_ref := after;
    refs := after :: !refs;
    Reference.rescale wall_s ~reference
  in
  (* set-up from scratch, setup_reps times, keeping only the last inputs *)
  let inputs = ref None and setups = ref [] in
  for _ = 1 to setup_reps do
    inputs := None;
    Gc.compact ();
    let (i, _), dt = Clock.time (fun () -> W.setup w ~scale:opts.scale ~seed:opts.seed) in
    inputs := Some i;
    setups := (dt, rescaled dt) :: !setups
  done;
  let inputs = Option.get !inputs in
  let reps = ref [] and n = ref 0 in
  let t0 = Clock.now_ns () in
  let more () =
    match opts.repeat with
    | Some r -> !n < r
    | None -> !n < min_reps || Clock.seconds_since t0 < opts.seconds
  in
  while more () do
    let r = W.run_once w inputs in
    reps := (r, rescaled r.W.wall_s) :: !reps;
    incr n
  done;
  let rescaled_rates =
    List.map (fun ((r : W.rep), s) -> float_of_int r.W.packets /. s) !reps
  in
  let reps = List.rev_map fst !reps in
  let first = List.hd reps in
  let problems =
    List.filter_map (fun r -> r.W.problem) reps
    @ List.concat_map (agree ~what:"repetitions" first) (List.tl reps)
  in
  let per_rep f = Clock.median (List.map f reps) in
  let packets = float_of_int first.W.packets in
  let metrics =
    [ m "setup_s" "s" (Clock.median (List.map snd !setups));
      m "pkt_per_s" "pkt/s" (Clock.median rescaled_rates);
      m "peak_rss_mb" "MB" (Clock.peak_rss_mb ()) ]
  in
  let updates = sorted_array (List.concat_map (fun r -> r.W.update_ms) reps) in
  let serve =
    if Array.length updates = 0 then []
    else
      let per_run = float_of_int (List.length first.W.update_ms) in
      [ m "upd_per_s" "upd/s" (per_rep (fun r -> per_run /. r.W.wall_s));
        m "cmd_p50_ms" "ms" (quantile updates 0.5); m "cmd_p99_ms" "ms" (quantile updates 0.99);
        m "cmd_samples" "count" (float_of_int (Array.length updates)) ]
  in
  let extra =
    [ m "repetitions" "count" (float_of_int (List.length reps));
      m "wall_pkt_per_s" "pkt/s" (per_rep (fun r -> float_of_int r.W.packets /. r.W.wall_s));
      m "wall_setup_s" "s" (Clock.median (List.map fst !setups));
      m "reference_ms" "ms" (Clock.median !refs *. 1e3);
      m "packets" "count" packets;
      m "connections" "count" (float_of_int first.W.counts.Harness.Replay.c_connections);
      m "broken_frac" "fraction"
        (float_of_int first.W.counts.Harness.Replay.c_broken
        /. float_of_int (Int.max 1 first.W.counts.Harness.Replay.c_connections));
      m "ns_per_pkt" "ns" (per_rep (fun r -> r.W.wall_s *. 1e9 /. float_of_int r.W.packets));
      m "minor_words_per_pkt" "words" (per_rep (fun r -> r.W.minor_words /. packets)) ]
    @ serve
  in
  {
    workload = w;
    metrics;
    extra;
    attempted = List.fold_left (fun a r -> a + r.W.counts.Harness.Replay.c_connections) 0 reps;
    failed = List.fold_left (fun a r -> a + r.W.counts.Harness.Replay.c_broken) 0 reps;
    problems;
    repetitions = List.length reps;
    spans = [];
  }

(* ----- the traced run ----- *)

(* cost of one empty span: two clock reads, two words reads, one add *)
let clock_calibration_ns () =
  let a = Traced.agg () in
  let n = 1_000_000 in
  let t0 = Clock.now_ns () in
  for _ = 1 to n do
    Traced.span a ignore
  done;
  float_of_int (Clock.now_ns () - t0) /. float_of_int n

(* Packed_trace.partition with the workload's flow-to-switch map *)
let partition_seconds w (inputs : W.inputs) =
  let trace = inputs.W.trace in
  let shards, shard_of =
    match w.W.kind with
    | W.Replay | W.Serve -> (1, Harness.Replay.shard_of ~shards:1)
    | W.Netwide ->
      let topo = W.build_topology inputs in
      ( Netwide.Topology.n_nodes topo,
        fun (t : Netcore.Five_tuple.t) ->
          match Netwide.Route.owner topo ~vip:t.Netcore.Five_tuple.dst t with
          | Some node -> node.Netwide.Topology.node_id
          | None -> 0 )
  in
  snd (Clock.time (fun () -> Harness.Packed_trace.partition trace ~shards ~shard_of))

let trace_run opts w =
  let t_start = Clock.now_ns () in
  Gc.compact ();
  let (inputs, st), setup_s = Clock.time (fun () -> W.setup w ~scale:opts.scale ~seed:opts.seed) in
  let partition_s = partition_seconds w inputs in
  let untraced = W.run_once w inputs in
  let tr = Traced.run w inputs in
  let probes = Probes.run w inputs in
  let clock_ns = clock_calibration_ns () in
  let s = tr.Traced.spans in
  let leaves = Traced.leaves s in
  let leaf_ns = List.fold_left (fun acc (_, a) -> acc + a.Traced.ns) 0 leaves in
  let unattributed = tr.Traced.wall_ns - leaf_ns in
  let packets = float_of_int tr.Traced.counts.Harness.Replay.c_packets in
  let problems =
    Option.to_list untraced.W.problem
    @ (if counts_equal tr.Traced.counts untraced.W.counts then []
       else [ "traced run: PCC counts differ from the untraced run" ])
    @ (if String.equal tr.Traced.telemetry untraced.W.telemetry then []
       else [ "traced run: switch telemetry differs from the untraced run" ])
    (* the leaf spans are disjoint, so they must fit inside the wall; the
       remainder is the root's self time, which makes the sum exact *)
    @ if unattributed >= 0 then [] else [ "traced run: span self times exceed the traced wall" ]
  in
  let per_call (a : Traced.agg) x =
    if a.Traced.calls = 0 then 0. else float_of_int x /. float_of_int a.Traced.calls
  in
  let untraced_ns_per_pkt = untraced.W.wall_s *. 1e9 /. packets in
  let wall = float_of_int tr.Traced.wall_ns in
  let node_ns = List.filter (fun x -> x > 0) (Array.to_list tr.Traced.node_ns) in
  let node_max = float_of_int (List.fold_left Int.max 0 node_ns) in
  let node_mean =
    float_of_int (List.fold_left ( + ) 0 node_ns) /. float_of_int (Int.max 1 (List.length node_ns))
  in
  let counter name = float_of_int (Registry.counter_value tr.Traced.registry name) in
  let conn_sum f =
    float_of_int
      (List.fold_left
         (fun acc sw -> acc + f (Silkroad.Switch.conn_table sw))
         0 tr.Traced.switches)
  in
  let tracked = sorted_array (List.map float_of_int tr.Traced.tracked_at_update) in
  let metrics =
    [ m "simnet.generate_s" "s" st.W.generate_s;
      m "packed_trace.compile_s" "s" st.W.compile_s;
      m "packed_trace.partition_s" "s" partition_s;
      m "switch.create_s" "s" (float_of_int s.Traced.create.Traced.ns *. 1e-9);
      m "switch.advance_ns_per_pkt" "ns" (float_of_int s.Traced.advance.Traced.ns /. packets);
      m "switch.advance_words_per_pkt" "words"
        (float_of_int s.Traced.advance.Traced.words /. packets);
      m "switch.advance_p99_us" "us" (Histogram.p99 tr.Traced.advance_hist *. 1e6);
      m "switch.syn_ns_per_call" "ns" (per_call s.Traced.syn s.Traced.syn.Traced.ns);
      m "switch.syn_words_per_call" "words" (per_call s.Traced.syn s.Traced.syn.Traced.words);
      m "switch.data_ns_per_call" "ns" (per_call s.Traced.data s.Traced.data.Traced.ns);
      m "switch.data_words_per_call" "words" (per_call s.Traced.data s.Traced.data.Traced.words);
      m "switch.process_p99_us" "us" (Histogram.p99 tr.Traced.process_hist *. 1e6);
      m "switch.syn_share" "fraction"
        (float_of_int s.Traced.syn.Traced.calls
        /. float_of_int (Int.max 1 (s.Traced.syn.Traced.calls + s.Traced.data.Traced.calls)));
      m "replay.ns_per_pkt" "ns" untraced_ns_per_pkt;
      m "replay.minor_words_per_pkt" "words" (untraced.W.minor_words /. packets);
      m "replay.residual_ns_per_pkt" "ns"
        (untraced_ns_per_pkt -. (float_of_int leaf_ns /. packets));
      m "replay.shard_work_s_max" "s" (node_max *. 1e-9);
      m "replay.shard_imbalance" "ratio" (if node_mean > 0. then node_max /. node_mean else 1.);
      m "control.apply_share" "fraction" (float_of_int s.Traced.control.Traced.ns /. wall);
      m "control.tracked_at_update_p50" "count" (quantile tracked 0.5);
      m "route.owner_ns" "ns" (per_call s.Traced.route s.Traced.route.Traced.ns);
      m "conn_table.occupancy" "fraction" probes.Probes.occupancy;
      m "conn_table.hit_ratio" "fraction" probes.Probes.hit_ratio;
      m "conn_table.lookup_ns" "ns" probes.Probes.lookup_ns;
      m "conn_table.insert_ns" "ns" probes.Probes.insert_ns;
      m "dip_pool_table.select_ns" "ns" probes.Probes.select_ns;
      m "bloom.mem_ns" "ns" probes.Probes.bloom_mem_ns;
      m "learning_filter.offer_ns" "ns" probes.Probes.offer_ns;
      m "timer_wheel.schedule_ns" "ns" probes.Probes.schedule_ns;
      m "timer_wheel.advance_ns" "ns" probes.Probes.wheel_advance_ns;
      m "five_tuple.hash_ns" "ns" probes.Probes.hash_ns;
      m "five_tuple.hashtbl_find_ns" "ns" probes.Probes.hashtbl_find_ns;
      m "switch.insert_overflows" "count" (counter "switch.insert_overflows");
      m "switch.table_full_drops" "count" (counter "switch.table_full_drops");
      m "switch.forced_transitions" "count" (counter "switch.forced_transitions");
      m "switch.updates_completed" "count" (counter "switch.updates_completed");
      m "conn_table.false_hits" "count" (counter "conn_table.false_hits");
      m "conn_table.bfs_expansions" "count" (conn_sum Silkroad.Conn_table.bfs_expansions);
      m "conn_table.greedy_kicks" "count" (conn_sum Silkroad.Conn_table.greedy_kicks);
      m "conn_table.moves" "count" (conn_sum Silkroad.Conn_table.moves);
      m "learning.dropped" "count" (counter "learning.dropped");
      m "bloom.adds" "count" (counter "bloom.adds");
      m "netwide.moved_flows" "count" (float_of_int tr.Traced.moved_flows);
      m "trace.overhead_frac" "fraction" ((wall *. 1e-9 /. untraced.W.wall_s) -. 1.);
      m "trace.unattributed_frac" "fraction" (float_of_int unattributed /. wall);
      m "trace.clock_ns" "ns" clock_ns ]
  in
  let control_ms =
    sorted_array (List.map (fun ns -> float_of_int ns *. 1e-6) tr.Traced.control_ns)
  in
  let extra =
    [ m "traced_wall_s" "s" (wall *. 1e-9); m "untraced_wall_s" "s" untraced.W.wall_s;
      m "setup_wall_s" "s" setup_s;
      m "control.parse_us" "us" (per_call s.Traced.parse s.Traced.parse.Traced.ns *. 1e-3);
      m "control.apply_ms_p50" "ms" (quantile control_ms 0.5);
      m "control.apply_ms_p99" "ms" (quantile control_ms 0.99);
      m "control.applied" "count" (float_of_int (Array.length control_ms)) ]
  in
  (* Spans, parent before child: the process, its set-up phases, the
     untraced runs, and the traced run whose self time is the
     unattributed remainder, over its aggregated leaves; each control
     application sits under the control.apply aggregate. *)
  let spans = ref [] and next = ref 0 in
  let add ?parent ?(calls = 1) ?(words = 0) ?self_ns name ns =
    let id = !next in
    incr next;
    spans :=
      Json.Obj
        [ ("id", Json.Int id);
          ("parent", match parent with Some p -> Json.Int p | None -> Json.Null);
          ("name", Json.String name); ("calls", Json.Int calls); ("ns", Json.Int ns);
          ("self_ns", Json.Int (Option.value self_ns ~default:ns));
          ("minor_words", Json.Int words) ]
      :: !spans;
    id
  in
  let ns_of s = int_of_float (s *. 1e9) in
  let total_ns = Clock.now_ns () - t_start in
  let root =
    add w.W.name total_ns
      ~self_ns:
        (total_ns - ns_of setup_s - ns_of partition_s - ns_of untraced.W.wall_s
       - tr.Traced.wall_ns)
  in
  let setup =
    add ~parent:root "setup" (ns_of setup_s)
      ~self_ns:(ns_of (setup_s -. st.W.generate_s -. st.W.compile_s -. st.W.build_s))
  in
  ignore (add ~parent:setup "simnet.generate" (ns_of st.W.generate_s));
  ignore (add ~parent:setup "packed_trace.compile" (ns_of st.W.compile_s));
  ignore (add ~parent:setup "setup.build" (ns_of st.W.build_s));
  ignore (add ~parent:root "packed_trace.partition" (ns_of partition_s));
  ignore (add ~parent:root "untraced.run" (ns_of untraced.W.wall_s));
  let traced = add ~parent:root "traced.run" tr.Traced.wall_ns ~self_ns:unattributed in
  List.iter
    (fun (name, (a : Traced.agg)) ->
      let per_control = String.equal name "control.apply" in
      let id =
        add ~parent:traced ~calls:a.Traced.calls ~words:a.Traced.words
          ?self_ns:(if per_control then Some 0 else None)
          name a.Traced.ns
      in
      if per_control then
        List.iter (fun ns -> ignore (add ~parent:id "control.apply.one" ns)) tr.Traced.control_ns)
    leaves;
  {
    workload = w;
    metrics;
    extra;
    attempted = untraced.W.counts.c_connections + tr.Traced.counts.c_connections;
    failed = untraced.W.counts.c_broken + tr.Traced.counts.c_broken;
    problems;
    repetitions = 1;
    spans = List.rev !spans;
  }

(* ----- several workloads: one child process each ----- *)

let child_args opts ~workload ~trace =
  [ Sys.executable_name; "--workload"; workload; "--seed"; string_of_int opts.seed;
    "--scale"; (match opts.scale with W.Full -> "full" | W.Tiny -> "tiny") ]
  @ (match opts.repeat with
     | Some r -> [ "--repeat"; string_of_int r ]
     | None -> [ "--seconds"; Printf.sprintf "%g" opts.seconds ])
  @ if trace then [ "--trace" ] else []

(* run a child, echo its output, return its exit status and last line *)
let run_child args =
  let ic = Unix.open_process_args_in (List.hd args) (Array.of_list args) in
  let last = ref "" in
  (try
     while true do
       let line = input_line ic in
       print_endline line;
       last := line
     done
   with End_of_file -> ());
  let status = Unix.close_process_in ic in
  ((match status with Unix.WEXITED c -> c | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> 1), !last)

let metric_value result name =
  match Json.parse result with
  | Ok doc ->
    (match Option.bind (Json.member "metrics" doc) (Json.member name) with
     | Some o ->
       (match Json.member "value" o with
        | Some (Json.Float f) -> Some f
        | Some (Json.Int i) -> Some (float_of_int i)
        | _ -> None)
     | None -> None)
  | Error _ -> None

let run_all opts =
  List.fold_left
    (fun acc (w : W.t) ->
      Int.max acc (fst (run_child (child_args opts ~workload:w.W.name ~trace:opts.trace))))
    0 W.all

(* the tiny self-test: both modes of every workload, every metric named
   in BENCHMARK.json present in the matching result line *)
let selftest opts =
  let names key =
    match Json.parse (In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all) with
    | Ok doc ->
      (match Json.member key doc with
       | Some (Json.List l) ->
         List.filter_map
           (fun o -> match Json.member "name" o with Some (Json.String s) -> Some s | _ -> None)
           l
       | _ -> failwith ("BENCHMARK.json: no " ^ key))
    | Error e -> failwith ("BENCHMARK.json: " ^ e)
  in
  let failures = ref [] in
  List.iter
    (fun (w : W.t) ->
      List.iter
        (fun (trace, key) ->
          let code, last =
            run_child (child_args { opts with repeat = Some 2 } ~workload:w.W.name ~trace)
          in
          let fail msg =
            let mode = if trace then " --trace" else "" in
            failures := Printf.sprintf "%s%s: %s" w.W.name mode msg :: !failures
          in
          if code <> 0 then fail (Printf.sprintf "exit %d" code);
          List.iter
            (fun name -> if metric_value last name = None then fail ("no metric " ^ name))
            (names key))
        [ (false, "end_to_end"); (true, "per_layer") ])
    W.all;
  match List.rev !failures with
  | [] ->
    print_endline "self-test OK: every workload, both modes, all BENCHMARK.json metrics";
    0
  | fs ->
    List.iter (fun f -> print_endline ("self-test FAILED: " ^ f)) fs;
    1

(* ----- command line ----- *)

let usage () =
  prerr_endline
    "usage: benchmark.exe [--workload NAME|all] [--seed N] [--seconds S] [--repeat R] [--trace] \
     [--scale full|tiny] [--json FILE]";
  prerr_endline ("workloads: " ^ String.concat ", " (List.map (fun (w : W.t) -> w.W.name) W.all));
  exit 2

let parse_args argv =
  let rec go o = function
    | [] -> o
    | "--workload" :: v :: rest -> go { o with target = v } rest
    | "--seed" :: v :: rest ->
      (match int_of_string_opt v with Some s -> go { o with seed = s } rest | None -> usage ())
    | "--seconds" :: v :: rest ->
      (match float_of_string_opt v with
       | Some s when s > 0. -> go { o with seconds = s } rest
       | _ -> usage ())
    | "--repeat" :: v :: rest ->
      (match int_of_string_opt v with
       | Some r when r > 0 -> go { o with repeat = Some r } rest
       | _ -> usage ())
    | "--trace" :: rest -> go { o with trace = true } rest
    | "--scale" :: "full" :: rest -> go { o with scale = W.Full } rest
    | "--scale" :: "tiny" :: rest -> go { o with scale = W.Tiny } rest
    | "--json" :: v :: rest -> go { o with json = Some v } rest
    | _ -> usage ()
  in
  go
    { target = ""; seed = default_seed; seconds = 10.; repeat = None; trace = false;
      scale = W.Full; json = None }
    (List.tl (Array.to_list argv))

let () =
  let opts = parse_args Sys.argv in
  let code =
    match (opts.target, opts.scale) with
    | "", W.Tiny -> selftest opts
    | ("" | "all"), _ -> run_all opts
    | name, _ ->
      (match W.find name with
       | None -> usage ()
       | Some w -> emit opts (if opts.trace then trace_run opts w else measure opts w))
  in
  exit code

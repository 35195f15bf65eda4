(* The benchmark harness.

   Two halves:
   1. the paper reproduction — every table and figure of the evaluation
      section, printed as the same rows/series the paper reports
      (Experiments.Registry drives them; `--full` uses the larger
      operating points, the default `quick` scale finishes in a couple
      of minutes);
   2. Bechamel micro-benchmarks of the core data structures (one
      Test.make per structure), reported as ns/op. *)

open Bechamel

let vip = Netcore.Endpoint.v4 20 0 0 1 80

let flow i =
  Netcore.Five_tuple.make
    ~src:(Netcore.Endpoint.v4 1 2 ((i / 60000) + 1) 4 (1 + (i mod 60000)))
    ~dst:vip ~proto:Netcore.Protocol.Tcp

module Int_cuckoo = Asic.Cuckoo.Make (struct
  type t = int

  let equal = Int.equal
  let hash ~seed x = Netcore.Hashing.seeded ~seed (Int64.of_int x)
end)

(* One closure per micro-benchmark, shared by the two reporting paths:
   Bechamel OLS estimates in full mode, plain timed loops under --smoke
   (CI cannot afford Bechamel's trial schedule). Each closure prepares
   its structure at construction time; the returned thunk is the op. *)
let micro_ops () =
  let tuple_hash =
    let f = flow 1 in
    fun () -> ignore (Netcore.Five_tuple.hash ~seed:1 f)
  in
  let tuple_digest =
    let f = flow 2 in
    fun () -> ignore (Netcore.Five_tuple.digest ~bits:16 ~seed:1 f)
  in
  let cuckoo_lookup =
    let t = Int_cuckoo.create ~stages:2 ~rows_per_stage:65536 ~ways:4 () in
    for i = 0 to 99_999 do
      ignore (Int_cuckoo.insert t i i)
    done;
    let i = ref 0 in
    fun () ->
      incr i;
      ignore (Int_cuckoo.lookup t (!i mod 100_000))
  in
  let cuckoo_insert_delete =
    let t = Int_cuckoo.create ~stages:2 ~rows_per_stage:65536 ~ways:4 () in
    for i = 0 to 99_999 do
      ignore (Int_cuckoo.insert t i i)
    done;
    let i = ref 100_000 in
    fun () ->
      incr i;
      ignore (Int_cuckoo.insert t !i !i);
      ignore (Int_cuckoo.remove t !i)
  in
  let bloom =
    let b = Asic.Bloom_filter.create ~bits:2048 ~hashes:2 () in
    let i = ref 0 in
    fun () ->
      incr i;
      Asic.Bloom_filter.add b (Int64.of_int !i);
      ignore (Asic.Bloom_filter.mem b (Int64.of_int !i))
  in
  let warm_switch () =
    let sw = Silkroad.Switch.create Silkroad.Config.default in
    Silkroad.Switch.add_vip sw vip
      (Lb.Dip_pool.of_list (List.init 8 (fun i -> Netcore.Endpoint.v4 10 0 0 (i + 1) 20)));
    (* warm the table *)
    for i = 0 to 9_999 do
      ignore (Silkroad.Switch.process sw ~now:(float_of_int i *. 1e-4) (Netcore.Packet.syn (flow i)))
    done;
    Silkroad.Switch.advance sw ~now:10.;
    sw
  in
  let switch_process =
    let sw = warm_switch () in
    let i = ref 0 in
    fun () ->
      i := (!i + 1) mod 10_000;
      ignore (Silkroad.Switch.process sw ~now:11. (Netcore.Packet.data (flow !i)))
  in
  let switch_process_flow =
    let sw = warm_switch () in
    let i = ref 0 in
    fun () ->
      i := (!i + 1) mod 10_000;
      ignore
        (Silkroad.Switch.process_flow sw ~now:11. ~flags:Netcore.Tcp_flags.data
           ~payload_len:1024 (flow !i))
  in
  let maglev =
    let dips = List.init 16 (fun i -> Netcore.Endpoint.v4 10 0 0 (i + 1) 20) in
    fun () -> ignore (Baselines.Maglev_hash.create ~table_size:4099 dips)
  in
  let meter =
    let m = Asic.Meter.create ~cir:1e9 ~cbs:100000 ~eir:1e9 ~ebs:100000 in
    let t = ref 0. in
    fun () ->
      t := !t +. 1e-6;
      ignore (Asic.Meter.mark m ~now:!t ~bytes:1500)
  in
  [ ("five_tuple.hash", tuple_hash); ("five_tuple.digest16", tuple_digest);
    ("cuckoo.lookup@100k", cuckoo_lookup); ("cuckoo.insert+remove@100k", cuckoo_insert_delete);
    ("bloom.add+mem", bloom); ("switch.process(hit)", switch_process);
    ("switch.process_flow(hit)", switch_process_flow); ("maglev.build@4099", maglev);
    ("meter.mark", meter) ]

let run_micro ppf =
  Format.fprintf ppf "@.=== Micro-benchmarks (Bechamel, ns/op) ===@.";
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
  List.iter
    (fun (name, op) ->
      let test = Test.make ~name (Staged.stage op) in
      let results = Benchmark.all cfg [ instance ] test in
      let ols =
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |])
          instance results
      in
      (* collect and sort: Hashtbl order is seed-dependent and this
         prints straight into the report *)
      Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) ols []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      |> List.iter (fun (name, ols) ->
             match Analyze.OLS.estimates ols with
             | Some [ ns ] -> Format.fprintf ppf "  %-28s %10.1f ns/op@." name ns
             | Some _ | None -> Format.fprintf ppf "  %-28s (no estimate)@." name))
    (micro_ops ())

(* The --smoke variant: fixed-count timed loops, coarse but seconds-fast
   (maglev.build is ~100 µs/op, so counts are per-op). *)
let run_micro_fast ppf =
  Format.fprintf ppf "@.=== Micro-benchmarks (timed loops, ns/op) ===@.";
  List.iter
    (fun (name, op) ->
      let iters = if name = "maglev.build@4099" then 200 else 100_000 in
      for _ = 1 to 1_000 do
        op ()
      done;
      let (), dt =
        Harness.Stopwatch.time (fun () ->
            for _ = 1 to iters do
              op ()
            done)
      in
      Format.fprintf ppf "  %-28s %10.1f ns/op@." name (dt *. 1e9 /. float_of_int iters))
    (micro_ops ())

(* ----- the replay benchmark (BENCH_replay.json) -----

   One operating point per section: --smoke is the CI gate (6K
   connections), full is the paper-scale point (4 VIPs x 5000 conn/s x
   50 s = 1M connections). Every mode replays the identical packed
   trace; the driver run is the seed scalar baseline the ISSUE's >=5x
   batch-speedup acceptance is measured against. *)

(* Minor words allocated so far by every domain, live or joined:
   [Gc.minor_words] counts only the calling domain, which misses the
   parallel legs' workers. The [Gc.minor] flushes this domain's own
   minor heap into the totals [Gc.quick_stat] sums. *)
let all_minor_words () =
  Gc.minor ();
  (Gc.quick_stat ()).Gc.minor_words

let replay_modes () =
  let auto = Harness.Replay.auto_shards () in
  [ ("scalar", Harness.Replay.Scalar); ("batch", Harness.Replay.Batch);
    ("shard4", Harness.Replay.Sharded { shards = 4; parallel = false });
    ("shard4_parallel", Harness.Replay.Sharded { shards = 4; parallel = true });
    ("shard_auto", Harness.Replay.Sharded { shards = auto; parallel = false });
    ("shard_auto_parallel", Harness.Replay.Sharded { shards = auto; parallel = true }) ]

let replay_section ppf ~smoke =
  let label = if smoke then "smoke" else "full" in
  let conns_per_sec_per_vip, trace_seconds = if smoke then (50., 30.) else (5000., 50.) in
  let s =
    Experiments.Common.scenario ~conns_per_sec_per_vip ~updates_per_min:0. ~trace_seconds ()
  in
  let vips = Experiments.Common.vips_of ~n_vips:4 ~dips_per_vip:8 in
  let make_switch () =
    let sw = Silkroad.Switch.create Silkroad.Config.default in
    List.iter (fun (vip, pool) -> Silkroad.Switch.add_vip sw vip pool) vips;
    sw
  in
  Format.fprintf ppf "@.=== Replay bench (%s): %d flows ===@." label
    (List.length s.Experiments.Common.flows);
  let _sw, balancer = Experiments.Common.silkroad ~vips () in
  let d, driver_s =
    Harness.Stopwatch.time (fun () ->
        Harness.Driver.run ~balancer ~flows:s.Experiments.Common.flows ~updates:[]
          ~horizon:s.Experiments.Common.horizon ())
  in
  let driver_pps = float_of_int d.Harness.Driver.packets /. driver_s in
  Format.fprintf ppf "  %-16s %10.2e pkt/s  %8.1f ns/pkt  (%d packets)@." "driver" driver_pps
    (driver_s *. 1e9 /. float_of_int d.Harness.Driver.packets)
    d.Harness.Driver.packets;
  let trace, compile_s =
    Harness.Stopwatch.time (fun () ->
        Harness.Packed_trace.compile ~horizon:s.Experiments.Common.horizon
          s.Experiments.Common.flows)
  in
  Format.fprintf ppf "  trace compiled in %.2f s (%d packets)@." compile_s
    (Harness.Packed_trace.n_packets trace);
  let fields = ref [] in
  let field k v = fields := (label ^ "_" ^ k, v) :: !fields in
  field "connections" (Telemetry.Json.Int d.Harness.Driver.connections);
  field "packets" (Telemetry.Json.Int d.Harness.Driver.packets);
  field "driver_pps" (Telemetry.Json.Float driver_pps);
  field "auto_shards" (Telemetry.Json.Int (Harness.Replay.auto_shards ()));
  let mode_pps = ref [] in
  (* full runs time each mode best-of-3: the replay is deterministic, so
     repeats differ only by machine noise, and the parallel/sequential
     ratio gate needs that noise below its 3% allowance *)
  let repeats = if smoke then 1 else 3 in
  List.iter
    (fun (name, mode) ->
      (* level the GC between modes: without this, later modes inherit
         the heap the earlier ones grew and their timings drift — the
         sharded parallel/sequential pairs in particular must differ
         only by the replay loop, not by run order *)
      Gc.compact ();
      let minor0 = all_minor_words () in
      let r = Harness.Replay.run ~mode ~make_switch ~trace ~controls:[] () in
      let minor = all_minor_words () -. minor0 in
      let r = ref r in
      for _ = 2 to repeats do
        Gc.compact ();
        let again = Harness.Replay.run ~mode ~make_switch ~trace ~controls:[] () in
        if again.Harness.Replay.elapsed < !r.Harness.Replay.elapsed then r := again
      done;
      let r = !r in
      (* byte-identical PCC accounting across paths, or the numbers are
         meaningless: fail loudly, not quietly *)
      if
        r.Harness.Replay.packets <> d.Harness.Driver.packets
        || r.Harness.Replay.connections <> d.Harness.Driver.connections
        || r.Harness.Replay.broken <> d.Harness.Driver.broken_connections
      then begin
        Format.fprintf ppf "FATAL: %s replay diverged from the driver@." name;
        exit 1
      end;
      let pps = float_of_int r.Harness.Replay.packets /. r.Harness.Replay.elapsed in
      let ns = r.Harness.Replay.elapsed *. 1e9 /. float_of_int r.Harness.Replay.packets in
      let words = minor /. float_of_int r.Harness.Replay.packets in
      Format.fprintf ppf
        "  %-16s %10.2e pkt/s  %8.1f ns/pkt  %6.1f minor words/pkt  %5.2fx driver@." name pps
        ns words (pps /. driver_pps);
      mode_pps := (name, pps) :: !mode_pps;
      field (name ^ "_pps") (Telemetry.Json.Float pps);
      field (name ^ "_ns_per_packet") (Telemetry.Json.Float ns);
      field (name ^ "_minor_words_per_packet") (Telemetry.Json.Float words);
      field (name ^ "_speedup_vs_driver") (Telemetry.Json.Float (pps /. driver_pps)))
    (replay_modes ());
  (* parallel-vs-sequential: the sharded pairs replay the identical
     per-shard sub-traces, so parallel < sequential means the Domain
     handoff itself is losing — the regression this PR exists to fix.
     Smoke warns (CI annotation, exit 0: tiny traces are noisy); full
     runs gate at 0.97 to absorb wall-clock noise without letting a real
     regression through. *)
  let pps_of name = List.assoc name !mode_pps in
  let ratio pair =
    let r = pps_of (pair ^ "_parallel") /. pps_of pair in
    field (pair ^ "_parallel_vs_sequential_ratio") (Telemetry.Json.Float r);
    r
  in
  let r4 = ratio "shard4" in
  let rauto =
    let r = pps_of "shard_auto_parallel" /. pps_of "shard_auto" in
    field "shard_auto_parallel_vs_sequential_ratio" (Telemetry.Json.Float r);
    r
  in
  let worst = Float.min r4 rauto in
  field "parallel_vs_sequential_ratio" (Telemetry.Json.Float worst);
  if worst < 1.0 then begin
    Format.fprintf ppf "  parallel/sequential ratio %.3f < 1 (shard4 %.3f, shard_auto %.3f)@."
      worst r4 rauto;
    if smoke then
      (* GitHub picks ::warning lines up as annotations; smoke never fails on this *)
      Format.fprintf ppf "::warning ::replay %s parallel_vs_sequential_ratio %.3f < 1@." label
        worst
    else if worst < 0.97 then begin
      Format.fprintf ppf "REGRESSION: %s parallel sharded replay is slower than sequential@."
        label;
      exit 1
    end
  end;
  List.rev !fields

(* ----- the full-scale replay leg (--full-scale, nightly) -----

   The Fig-6-style operating point pushed to the insert wall:
   [--connections N] (default 10M) connections over 50 s of trace
   through a ConnTable actually sized for them
   (Silkroad.Config.sized_for). No driver leg — at this scale the boxed
   driver is hours, and the sharded sequential replay IS the reference
   judge: the parallel leg must reproduce its PCC counters
   byte-for-byte or the bench exits non-zero. *)

let scale_label = "full10m"

(* static template: which full10m_ keys exist and their JSON type, so a
   smoke/full rewrite of BENCH_replay.json can carry a previously
   committed full-scale section over verbatim *)
let scale_field_template =
  [ ("target_connections", `I); ("connections", `I); ("packets", `I); ("auto_shards", `I);
    ("compile_s", `F); ("broken", `I); ("seq_pps", `F); ("seq_ns_per_packet", `F);
    ("seq_minor_words_per_packet", `F); ("par_pps", `F); ("par_ns_per_packet", `F);
    ("par_minor_words_per_packet", `F); ("parallel_vs_sequential_ratio", `F) ]

let replay_scale_section ppf ~connections =
  let n_vips = 4 and dips_per_vip = 8 in
  let trace_seconds = 50. in
  let conns_per_sec_per_vip =
    float_of_int connections /. float_of_int n_vips /. trace_seconds
  in
  let cfg = Silkroad.Config.sized_for ~connections in
  let vips = Experiments.Common.vips_of ~n_vips ~dips_per_vip in
  let make_switch () =
    let sw = Silkroad.Switch.create cfg in
    List.iter (fun (vip, pool) -> Silkroad.Switch.add_vip sw vip pool) vips;
    sw
  in
  let auto = Harness.Replay.auto_shards () in
  Format.fprintf ppf "@.=== Replay bench (full-scale): %d connections, %d auto shard(s) ===@."
    connections auto;
  (* scope the flow list inside the binding so the 10M-element list is
     garbage before the replay legs run *)
  let trace, compile_s =
    let s =
      Experiments.Common.scenario ~conns_per_sec_per_vip ~updates_per_min:0. ~trace_seconds ()
    in
    Harness.Stopwatch.time (fun () ->
        Harness.Packed_trace.compile ~horizon:s.Experiments.Common.horizon
          s.Experiments.Common.flows)
  in
  Gc.full_major ();
  Format.fprintf ppf "  trace compiled in %.2f s (%d flows, %d packets)@." compile_s
    (Harness.Packed_trace.n_flows trace)
    (Harness.Packed_trace.n_packets trace);
  (* best-of-2: deterministic replay, so the repeat only strips machine
     noise from the parallel/sequential ratio (each 10M leg is minutes
     long, so noise is already well averaged; 2 is enough) *)
  let run_leg name parallel =
    Gc.compact ();
    let minor0 = all_minor_words () in
    let r0 =
      Harness.Replay.run
        ~mode:(Harness.Replay.Sharded { shards = auto; parallel })
        ~make_switch ~trace ~controls:[] ()
    in
    let minor = all_minor_words () -. minor0 in
    Gc.compact ();
    let r1 =
      Harness.Replay.run
        ~mode:(Harness.Replay.Sharded { shards = auto; parallel })
        ~make_switch ~trace ~controls:[] ()
    in
    let r = if r1.Harness.Replay.elapsed < r0.Harness.Replay.elapsed then r1 else r0 in
    let pps = float_of_int r.Harness.Replay.packets /. r.Harness.Replay.elapsed in
    let ns = r.Harness.Replay.elapsed *. 1e9 /. float_of_int r.Harness.Replay.packets in
    let words = minor /. float_of_int r.Harness.Replay.packets in
    Format.fprintf ppf "  %-16s %10.2e pkt/s  %8.1f ns/pkt  %6.1f minor words/pkt@." name pps ns
      words;
    (r, pps, ns, words)
  in
  let rs, seq_pps, seq_ns, seq_words = run_leg "shard_auto(seq)" false in
  let rp, par_pps, par_ns, par_words = run_leg "shard_auto(par)" true in
  (* the sequential leg is the reference judge: every PCC counter and
     every flow's first DIP must agree byte-for-byte *)
  let counters_equal =
    rs.Harness.Replay.packets = rp.Harness.Replay.packets
    && rs.Harness.Replay.dropped = rp.Harness.Replay.dropped
    && rs.Harness.Replay.connections = rp.Harness.Replay.connections
    && rs.Harness.Replay.broken = rp.Harness.Replay.broken
    && rs.Harness.Replay.violations = rp.Harness.Replay.violations
    && rs.Harness.Replay.false_hits = rp.Harness.Replay.false_hits
    && rs.Harness.Replay.repairs = rp.Harness.Replay.repairs
  in
  let first_equal =
    let a = rs.Harness.Replay.first_dip and b = rp.Harness.Replay.first_dip in
    let no = Silkroad.Switch.no_dip in
    Array.length a = Array.length b
    &&
    let ok = ref true in
    Array.iteri
      (fun i x ->
        let y = b.(i) in
        if x == no then ok := !ok && y == no
        else ok := !ok && y != no && Netcore.Endpoint.equal x y)
      a;
    !ok
  in
  if not (counters_equal && first_equal) then begin
    Format.fprintf ppf
      "FATAL: full-scale parallel replay diverged from the sequential reference judge@.";
    exit 1
  end;
  let ratio = par_pps /. seq_pps in
  Format.fprintf ppf "  PCC identical (%d connections, %d broken); parallel/sequential %.3f@."
    rs.Harness.Replay.connections rs.Harness.Replay.broken ratio;
  if ratio < 0.97 then begin
    Format.fprintf ppf "REGRESSION: full-scale parallel sharded replay is slower than sequential@.";
    exit 1
  end;
  let f k v = (scale_label ^ "_" ^ k, v) in
  [ f "target_connections" (Telemetry.Json.Int connections);
    f "connections" (Telemetry.Json.Int rs.Harness.Replay.connections);
    f "packets" (Telemetry.Json.Int rs.Harness.Replay.packets);
    f "auto_shards" (Telemetry.Json.Int auto); f "compile_s" (Telemetry.Json.Float compile_s);
    f "broken" (Telemetry.Json.Int rs.Harness.Replay.broken);
    f "seq_pps" (Telemetry.Json.Float seq_pps);
    f "seq_ns_per_packet" (Telemetry.Json.Float seq_ns);
    f "seq_minor_words_per_packet" (Telemetry.Json.Float seq_words);
    f "par_pps" (Telemetry.Json.Float par_pps);
    f "par_ns_per_packet" (Telemetry.Json.Float par_ns);
    f "par_minor_words_per_packet" (Telemetry.Json.Float par_words);
    f "parallel_vs_sequential_ratio" (Telemetry.Json.Float ratio) ]

(* ----- the control bench (BENCH_control.json) -----

   The serve-mode control plane under load: a Session with the smoke
   replay workload flowing through it, fed a rendered command script of
   alternating dip-remove/dip-add churn (one update per cadence tick,
   round-robin over the VIPs). Wall-clock throughput of the command loop
   is the gated number; apply/recycle latency and TransitTable pressure
   come from the session's own control.* histograms (virtual seconds). *)

let control_section ppf ~smoke =
  let label = if smoke then "smoke" else "full" in
  let conns_per_sec_per_vip, trace_seconds, cadence =
    if smoke then (50., 30., 0.25) else (500., 60., 0.0625)
  in
  let n_vips = 4 and dips_per_vip = 8 in
  let s =
    Experiments.Common.scenario ~n_vips ~dips_per_vip ~conns_per_sec_per_vip
      ~updates_per_min:0. ~trace_seconds ()
  in
  let vips = Experiments.Common.vips_of ~n_vips ~dips_per_vip in
  let trace =
    Harness.Packed_trace.compile ~horizon:s.Experiments.Common.horizon
      s.Experiments.Common.flows
  in
  let vip_arr = Array.of_list vips in
  let n_updates = int_of_float (trace_seconds /. cadence) in
  (* Four 1/1024 s ticks right after each update walk the session's
     sample points through the update's Recording/Dual window (apply
     latency is ~1 ms), so control.transit_population actually observes
     the in-flight Bloom filter, not just the idle (cleared) state. All
     steps are dyadic, so the per-step deltas sum to exactly [cadence]. *)
  let tick = 1. /. 1024. in
  let advance dt = Control.Protocol.render { Control.Protocol.seq = None; cmd = Advance dt } in
  (* Per-VIP update cycle: remove a member / add it back (absorbed by
     version reuse — the flapping §4.2 optimizes for), then replace one
     member with a never-seen DIP (a pool that cannot recur, so its old
     version must drain and recycle — what the recycle histogram is
     measuring). The mirror of each pool keeps every generated command
     valid; the session re-validates and the bench fails loudly. *)
  let members = Array.map (fun (_, pool) -> ref (Array.to_list (Lb.Dip_pool.members pool))) vip_arr in
  let removed = Array.make n_vips None in
  let fresh = ref 0 in
  let script =
    List.concat
      (List.init n_updates (fun step ->
           let v_i = step mod n_vips in
           let vip, _ = vip_arr.(v_i) in
           let ms = members.(v_i) in
           let per = step / n_vips in
           let nth k = List.nth !ms (k mod List.length !ms) in
           let cmd =
             match per mod 3 with
             | 0 ->
               let d = nth (per / 3) in
               ms := List.filter (fun x -> not (Netcore.Endpoint.equal x d)) !ms;
               removed.(v_i) <- Some d;
               Control.Protocol.Dip_remove (vip, d)
             | 1 ->
               let d = Option.get removed.(v_i) in
               ms := !ms @ [ d ];
               Control.Protocol.Dip_add (vip, d)
             | _ ->
               incr fresh;
               let old_dip = nth (per / 3) in
               let new_dip = Experiments.Common.dip (9000 + !fresh) in
               ms :=
                 List.map (fun x -> if Netcore.Endpoint.equal x old_dip then new_dip else x) !ms;
               Control.Protocol.Dip_replace { vip; old_dip; new_dip }
           in
           advance (cadence -. (4. *. tick))
           :: Control.Protocol.render { Control.Protocol.seq = Some step; cmd }
           :: List.init 4 (fun _ -> advance tick)))
  in
  Format.fprintf ppf "@.=== Control bench (%s): %d update commands over %d flows ===@." label
    n_updates
    (List.length s.Experiments.Common.flows);
  (* Sessions are deterministic, so every repetition produces identical
     counters and histograms; only the wall clock varies. The smoke
     script runs in well under 100 ms, far too short for a stable 70%
     CI gate, so take the best of three fresh sessions and report that
     repetition's (identical) metrics. *)
  let run_once () =
    let session = Control.Session.create ~vips ~trace () in
    let (), wall =
      Harness.Stopwatch.time (fun () ->
          List.iter
            (fun l ->
              match Control.Session.exec_line session l with
              | Some { Control.Protocol.body = Error m; _ } ->
                Format.fprintf ppf "FATAL: %S rejected: %s@." l m;
                exit 1
              | Some { Control.Protocol.body = Ok _; _ } | None -> ())
            script)
    in
    (session, wall)
  in
  let reps = if smoke then 3 else 1 in
  let best = ref (run_once ()) in
  for _ = 2 to reps do
    let ((_, w2) as r) = run_once () in
    if w2 < snd !best then best := r
  done;
  let session, wall = !best in
  let live = Control.Session.counts session in
  (match Control.Session.exec_line session "drain" with
   | Some { Control.Protocol.body = Ok _; _ } -> ()
   | _ ->
     Format.fprintf ppf "FATAL: drain failed@.";
     exit 1);
  if Control.Session.pending_updates session <> 0 then begin
    Format.fprintf ppf "FATAL: %d updates still pending after drain@."
      (Control.Session.pending_updates session);
    exit 1
  end;
  let reg = Control.Session.control_metrics session in
  let hist name =
    match Telemetry.Registry.find_histogram reg name with
    | Some h -> h
    | None ->
      Format.fprintf ppf "FATAL: session never fed %s@." name;
      exit 1
  in
  let apply = hist "control.update_apply_seconds" in
  let recycle = hist "control.version_recycle_seconds" in
  let transit = hist "control.transit_population" in
  let updates_per_sec = float_of_int n_updates /. wall in
  let fields = ref [] in
  let field k v = fields := (label ^ "_" ^ k, v) :: !fields in
  field "update_commands" (Telemetry.Json.Int n_updates);
  field "updates_per_sec" (Telemetry.Json.Float updates_per_sec);
  field "packets_during_commands" (Telemetry.Json.Int live.Harness.Replay.c_packets);
  field "packets_per_sec" (Telemetry.Json.Float (float_of_int live.Harness.Replay.c_packets /. wall));
  field "connections" (Telemetry.Json.Int (Control.Session.counts session).Harness.Replay.c_connections);
  field "broken" (Telemetry.Json.Int (Control.Session.counts session).Harness.Replay.c_broken);
  field "apply_count" (Telemetry.Json.Int (Telemetry.Histogram.count apply));
  field "apply_p50_s" (Telemetry.Json.Float (Telemetry.Histogram.median apply));
  field "apply_p99_s" (Telemetry.Json.Float (Telemetry.Histogram.p99 apply));
  field "recycle_count" (Telemetry.Json.Int (Telemetry.Histogram.count recycle));
  field "recycle_p50_s" (Telemetry.Json.Float (Telemetry.Histogram.median recycle));
  field "recycle_p99_s" (Telemetry.Json.Float (Telemetry.Histogram.p99 recycle));
  field "transit_peak" (Telemetry.Json.Float (Telemetry.Histogram.max_value transit));
  Format.fprintf ppf
    "  %-16s %10.1f upd/s (wall)  %d commands in %.2f s, %d packets interleaved@." "throughput"
    updates_per_sec n_updates wall live.Harness.Replay.c_packets;
  Format.fprintf ppf "  %-16s p50 %.2e s  p99 %.2e s  (%d updates, virtual time)@." "apply"
    (Telemetry.Histogram.median apply) (Telemetry.Histogram.p99 apply)
    (Telemetry.Histogram.count apply);
  Format.fprintf ppf "  %-16s p50 %.2e s  p99 %.2e s  (%d versions)@." "recycle"
    (Telemetry.Histogram.median recycle) (Telemetry.Histogram.p99 recycle)
    (Telemetry.Histogram.count recycle);
  Format.fprintf ppf "  %-16s peak %.0f entries@." "transit" (Telemetry.Histogram.max_value transit);
  List.rev !fields

(* ----- the netwide bench (BENCH_netwide.json) -----

   Two legs per operating point:

   1. the degenerate differential: a 1-Core/1-Agg/1-ToR topology whose
      placement pins every VIP to the single ToR must replay a scripted
      update workload byte-identically (merged telemetry) to the
      single-switch batch replay — the netwide engine's correctness
      anchor, asserted here on the committed bench workload, not just
      the unit suite;

   2. the failure leg — the paper's network-wide claim as a gate: a ToR
      dies with half the connections on it, a DIP pool update lands
      while the re-routed flows are re-arriving at the surviving ToR
      (behind a stalled switch CPU, the §4.3 window at its widest), the
      switch recovers and routing pulls the flows back. The end-to-end
      judge must report zero PCC violations or the bench exits
      non-zero. The parallel worker-group run must reproduce the
      sequential leg's telemetry byte-for-byte. *)

let netwide_flows ~seed ~n ~span vips =
  let rng = Random.State.make [| seed; 0x5eed |] in
  let vips = Array.of_list vips in
  List.init n (fun id ->
      let vip, _ = vips.(Random.State.int rng (Array.length vips)) in
      let src =
        Netcore.Endpoint.v4
          (1 + Random.State.int rng 200)
          (Random.State.int rng 250) (Random.State.int rng 250)
          (1 + Random.State.int rng 250)
          (1024 + Random.State.int rng 50000)
      in
      {
        Simnet.Flow.id;
        tuple = Netcore.Five_tuple.make ~src ~dst:vip ~proto:Netcore.Protocol.Tcp;
        start = Random.State.float rng span;
        duration = 0.5 +. Random.State.float rng 60.;
        bytes_per_sec = 1000.;
      })

let netwide_layer name switches sram_budget_bits =
  { Silkroad.Assignment.layer_name = name; switches; sram_budget_bits;
    capacity_gbps = 10_000. }

(* 50 MB of LB SRAM per state-holding switch; 0 marks a transit layer *)
let netwide_sram = 50 * 8 * 1024 * 1024

let netwide_section ppf ~smoke =
  let label = if smoke then "smoke" else "full" in
  let vips = Experiments.Common.vips_of ~n_vips:4 ~dips_per_vip:8 in
  let fields = ref [] in
  let field k v = fields := (label ^ "_" ^ k, v) :: !fields in
  (* --- leg 1: degenerate differential --- *)
  let conns_per_sec_per_vip, trace_seconds = if smoke then (50., 30.) else (2000., 50.) in
  let s =
    Experiments.Common.scenario ~conns_per_sec_per_vip ~updates_per_min:6. ~trace_seconds ()
  in
  let trace =
    Harness.Packed_trace.compile ~horizon:s.Experiments.Common.horizon
      s.Experiments.Common.flows
  in
  let controls =
    Harness.Replay.controls_of_updates ~horizon:s.Experiments.Common.horizon
      s.Experiments.Common.updates
  in
  Format.fprintf ppf "@.=== Netwide bench (%s): degenerate differential, %d packets ===@." label
    (Harness.Packed_trace.n_packets trace);
  let make_switch () =
    let sw = Silkroad.Switch.create Silkroad.Config.default in
    List.iter (fun (vip, pool) -> Silkroad.Switch.add_vip sw vip pool) vips;
    sw
  in
  let single = Harness.Replay.run ~mode:Harness.Replay.Batch ~make_switch ~trace ~controls () in
  let degenerate_topo () =
    Netwide.Topology.build
      ~layers:
        [ netwide_layer "core" 1 0; netwide_layer "agg" 1 0; netwide_layer "tor" 1 netwide_sram ]
      ~vips ()
  in
  let nw = Netwide.Replay.run ~topo:(degenerate_topo ()) ~trace ~controls () in
  let json r = Telemetry.Snapshot.to_json (Telemetry.Registry.snapshot r) in
  if
    not
      (String.equal
         (json single.Harness.Replay.telemetry)
         (json nw.Netwide.Replay.telemetry))
  then begin
    Format.fprintf ppf "FATAL: degenerate netwide replay diverged from the single-switch judge@.";
    exit 1
  end;
  let degen_pps = float_of_int nw.Netwide.Replay.packets /. nw.Netwide.Replay.elapsed in
  Format.fprintf ppf "  %-20s %10.2e pkt/s  (telemetry byte-identical to single switch)@."
    "degenerate" degen_pps;
  field "degenerate_packets" (Telemetry.Json.Int nw.Netwide.Replay.packets);
  field "degenerate_pps" (Telemetry.Json.Float degen_pps);
  (* --- leg 2: ToR failure + concurrent update + recovery --- *)
  let n_flows = if smoke then 800 else 6000 in
  let flows = netwide_flows ~seed:777 ~n:n_flows ~span:25. vips in
  let ftrace = Harness.Packed_trace.compile ~probe_interval:1. ~horizon:120. flows in
  let vip0, pool0 = List.hd vips in
  let removed = (Lb.Dip_pool.members pool0).(0) in
  let fcontrols =
    (29., Harness.Replay.Cpu_backlog 1_000_000)
    :: Harness.Replay.controls_of_updates ~horizon:120.
         [ (30.4, vip0, Lb.Balancer.Dip_remove removed) ]
  in
  let events =
    [ (30., Netwide.Replay.Switch_down 1); (90., Netwide.Replay.Switch_up 1) ]
  in
  let two_tor () =
    Netwide.Topology.build
      ~layers:[ netwide_layer "core" 1 0; netwide_layer "tor" 2 netwide_sram ]
      ~vips ()
  in
  Format.fprintf ppf "  failure leg: %d flows, %d packets@." n_flows
    (Harness.Packed_trace.n_packets ftrace);
  let run_leg parallel =
    Gc.compact ();
    Netwide.Replay.run ~parallel ~topo:(two_tor ()) ~trace:ftrace ~controls:fcontrols ~events ()
  in
  let rs = run_leg false in
  let rp = run_leg true in
  (* the committed acceptance: connections established before the
     failure, re-routed to the surviving ToR, survive the concurrent
     pool update with zero network-wide PCC violations *)
  if rs.Netwide.Replay.violations <> 0 then begin
    Format.fprintf ppf "FATAL: %d network-wide PCC violations on the failure leg@."
      rs.Netwide.Replay.violations;
    exit 1
  end;
  if rs.Netwide.Replay.moved_flows = 0 then begin
    Format.fprintf ppf "FATAL: the failure leg re-homed no flows — the leg is vacuous@.";
    exit 1
  end;
  if
    not
      (String.equal (json rs.Netwide.Replay.telemetry) (json rp.Netwide.Replay.telemetry))
    || rs.Netwide.Replay.violations <> rp.Netwide.Replay.violations
    || rs.Netwide.Replay.moved_flows <> rp.Netwide.Replay.moved_flows
  then begin
    Format.fprintf ppf "FATAL: parallel netwide replay diverged from the sequential judge@.";
    exit 1
  end;
  let seq_pps = float_of_int rs.Netwide.Replay.packets /. rs.Netwide.Replay.elapsed in
  let par_pps = float_of_int rp.Netwide.Replay.packets /. rp.Netwide.Replay.elapsed in
  Format.fprintf ppf
    "  %-20s %10.2e pkt/s seq  %10.2e pkt/s par  (%d conns, %d re-homed, 0 violations)@."
    "failure+update" seq_pps par_pps rs.Netwide.Replay.connections
    rs.Netwide.Replay.moved_flows;
  field "failure_packets" (Telemetry.Json.Int rs.Netwide.Replay.packets);
  field "failure_connections" (Telemetry.Json.Int rs.Netwide.Replay.connections);
  field "failure_moved_flows" (Telemetry.Json.Int rs.Netwide.Replay.moved_flows);
  field "failure_violations" (Telemetry.Json.Int rs.Netwide.Replay.violations);
  field "netwide_seq_pps" (Telemetry.Json.Float seq_pps);
  field "netwide_par_pps" (Telemetry.Json.Float par_pps);
  List.rev !fields

(* The CI regression gate: flat string scan for "<key>": <number> in the
   committed baseline (no JSON parser needed for one float). *)
let scan_json_float content key =
  let needle = "\"" ^ key ^ "\":" in
  let nlen = String.length needle and clen = String.length content in
  let rec find i =
    if i + nlen > clen then None
    else if String.sub content i nlen = needle then Some (i + nlen)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some start ->
    let stop = ref start in
    while
      !stop < clen
      && (match content.[!stop] with
          | '0' .. '9' | '.' | '-' | '+' | 'e' | 'E' | ' ' -> true
          | _ -> false)
    do
      incr stop
    done;
    float_of_string_opt (String.trim (String.sub content start (!stop - start)))

let check_baseline ppf ~file ~key fields =
  let content = In_channel.with_open_bin file In_channel.input_all in
  match scan_json_float content key with
  | None ->
    Format.fprintf ppf "baseline %s has no %s; skipping regression gate@." file key;
    true
  | Some base ->
    let current =
      match List.assoc_opt key fields with
      | Some (Telemetry.Json.Float v) -> v
      | _ -> 0.
    in
    if current < 0.7 *. base then begin
      Format.fprintf ppf "REGRESSION: %s %.3e is below 70%% of baseline %.3e@." key current
        base;
      false
    end
    else begin
      Format.fprintf ppf "baseline OK: %s %.3e vs baseline %.3e (%.0f%%)@." key current base
        (100. *. current /. base);
      true
    end

(* Atomic write: build in a .tmp and rename, so a killed bench never
   leaves a truncated committed artifact behind. *)
let write_bench_json ppf path fields =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Telemetry.Json.to_string_pretty (Telemetry.Json.Obj fields));
      output_char oc '\n');
  Sys.rename tmp path;
  Format.fprintf ppf "wrote %s@." path

(* A --smoke run rewrites the committed bench file; carry the existing
   full_ section over verbatim so `make check` and the CI smoke gates
   never clobber the offline-produced full-scale numbers. Each smoke
   field doubles as the type template for its full_ mirror. *)
let preserve_full_section path smoke_fields =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error _ -> []
  | content ->
    List.filter_map
      (fun (k, template) ->
        if not (String.starts_with ~prefix:"smoke_" k) then None
        else begin
          let full_key = "full_" ^ String.sub k 6 (String.length k - 6) in
          match (scan_json_float content full_key, template) with
          | None, _ -> None
          | Some v, Telemetry.Json.Int _ ->
            Some (full_key, Telemetry.Json.Int (int_of_float v))
          | Some v, _ -> Some (full_key, Telemetry.Json.Float v)
        end)
      smoke_fields

(* Same idea for the full-scale (full10m_) section, whose keys have no
   smoke template: the static [scale_field_template] supplies them. *)
let preserve_scale_section path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error _ -> []
  | content ->
    List.filter_map
      (fun (k, ty) ->
        let key = scale_label ^ "_" ^ k in
        match scan_json_float content key with
        | None -> None
        | Some v ->
          Some
            ( key,
              match ty with
              | `I -> Telemetry.Json.Int (int_of_float v)
              | `F -> Telemetry.Json.Float v ))
      scale_field_template

let run_replay ppf ~smoke ~scale ~connections ~baseline =
  let sections =
    if smoke then begin
      let sm = replay_section ppf ~smoke:true in
      sm @ preserve_full_section "BENCH_replay.json" sm
    end
    else begin
      (* bind to force smoke-before-full evaluation (and print) order *)
      let sm = replay_section ppf ~smoke:true in
      sm @ replay_section ppf ~smoke:false
    end
  in
  let fields =
    sections
    @
    if scale then replay_scale_section ppf ~connections
    else preserve_scale_section "BENCH_replay.json"
  in
  write_bench_json ppf "BENCH_replay.json" fields;
  match baseline with
  | None -> ()
  | Some file -> if not (check_baseline ppf ~file ~key:"smoke_batch_pps" fields) then exit 1

let run_control ppf ~smoke ~baseline =
  let fields =
    if smoke then begin
      let sm = control_section ppf ~smoke:true in
      sm @ preserve_full_section "BENCH_control.json" sm
    end
    else begin
      (* bind to force smoke-before-full evaluation (and print) order *)
      let sm = control_section ppf ~smoke:true in
      sm @ control_section ppf ~smoke:false
    end
  in
  write_bench_json ppf "BENCH_control.json" fields;
  match baseline with
  | None -> ()
  | Some file ->
    if not (check_baseline ppf ~file ~key:"smoke_updates_per_sec" fields) then exit 1

let run_netwide ppf ~smoke ~baseline =
  let fields =
    if smoke then begin
      let sm = netwide_section ppf ~smoke:true in
      sm @ preserve_full_section "BENCH_netwide.json" sm
    end
    else begin
      (* bind to force smoke-before-full evaluation (and print) order *)
      let sm = netwide_section ppf ~smoke:true in
      sm @ netwide_section ppf ~smoke:false
    end
  in
  write_bench_json ppf "BENCH_netwide.json" fields;
  match baseline with
  | None -> ()
  | Some file ->
    if not (check_baseline ppf ~file ~key:"smoke_netwide_seq_pps" fields) then exit 1

(* Reference driver run whose registry snapshot is written next to the
   bench output: a machine-readable record of what the run measured
   (latency histograms included), comparable across commits. *)
let emit_telemetry ppf path =
  let scenario =
    Experiments.Common.scenario ~n_vips:1 ~dips_per_vip:8 ~conns_per_sec_per_vip:50.
      ~updates_per_min:6. ~trace_seconds:30. ()
  in
  let vips = Experiments.Common.vips_of ~n_vips:1 ~dips_per_vip:8 in
  let _, balancer = Experiments.Common.silkroad ~vips () in
  let r = Experiments.Common.run balancer scenario in
  let json =
    Telemetry.Json.Obj
      [ (r.Harness.Driver.balancer_name,
         Telemetry.Snapshot.to_json_value r.Harness.Driver.telemetry) ]
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Telemetry.Json.to_string_pretty json);
      output_char oc '\n');
  Format.fprintf ppf "wrote %s (latency median %.2e s, p99 %.2e s)@." path
    r.Harness.Driver.latency_median r.Harness.Driver.latency_p99

(* The chaos soak: every built-in scenario crossed with every balancer,
   at the full operating point. One line per run, a summary table at the
   end, non-zero exit if silkroad breaks PCC anywhere. Reports land in
   CHAOS_soak.<scenario>.<balancer>.json. *)
let run_soak ppf ~seed =
  Format.fprintf ppf "@.=== Chaos soak (seed %d): %d scenarios x %d balancers ===@." seed
    (List.length Chaos.Scenario.all)
    (List.length Experiments.Chaos_runner.balancer_names);
  let silkroad_failures = ref [] in
  let rows = ref [] in
  List.iter
    (fun scenario ->
      List.iter
        (fun balancer ->
          let spec = Experiments.Chaos_runner.default_spec scenario ~seed in
          let result, report = Experiments.Chaos_runner.run spec ~balancer in
          let path =
            Printf.sprintf "CHAOS_soak.%s.%s.json" scenario.Chaos.Scenario.name balancer
          in
          Chaos.Report.save path report;
          Format.fprintf ppf "  %-18s %-10s broken %6d/%6d (%.6f)  violations %6d@."
            scenario.Chaos.Scenario.name balancer report.Chaos.Report.broken_connections
            report.Chaos.Report.connections report.Chaos.Report.broken_fraction
            report.Chaos.Report.violation_packets;
          rows := (scenario.Chaos.Scenario.name, balancer, report) :: !rows;
          if String.equal balancer "silkroad" && report.Chaos.Report.broken_fraction > 0.001
          then
            silkroad_failures :=
              Printf.sprintf "%s: broken fraction %.6f" scenario.Chaos.Scenario.name
                report.Chaos.Report.broken_fraction
              :: !silkroad_failures;
          ignore result)
        Experiments.Chaos_runner.balancer_names)
    Chaos.Scenario.all;
  Format.fprintf ppf "@.%d reports written (CHAOS_soak.*.json)@." (List.length !rows);
  match !silkroad_failures with
  | [] -> Format.fprintf ppf "soak OK: silkroad held PCC in every scenario@."
  | fs ->
    Format.fprintf ppf "soak FAILED: %s@." (String.concat "; " (List.rev fs));
    exit 1

let () =
  let args = Array.to_list Sys.argv in
  let quick = not (List.mem "--full" args) in
  let smoke = List.mem "--smoke" args in
  let soak = List.mem "--soak" args in
  let only =
    let rec find = function
      | "--only" :: id :: _ -> Some id
      | _ :: rest -> find rest
      | [] -> None
    in
    find args
  in
  let skip_micro = List.mem "--no-micro" args in
  let replay = List.mem "--replay" args in
  let control = List.mem "--control" args in
  let netwide = List.mem "--netwide" args in
  let scale = List.mem "--full-scale" args in
  let connections =
    let rec find = function
      | "--connections" :: n :: _ ->
        (match int_of_string_opt n with
         | Some v when v > 0 -> v
         | _ -> failwith "bad --connections")
      | _ :: rest -> find rest
      | [] -> 10_000_000
    in
    find args
  in
  let baseline =
    let rec find = function
      | "--baseline" :: file :: _ -> Some file
      | _ :: rest -> find rest
      | [] -> None
    in
    find args
  in
  let ppf = Format.std_formatter in
  if soak then run_soak ppf ~seed:1
  else if control then begin
    Format.fprintf ppf "SilkRoad bench — control mode (%s)@."
      (if smoke then "smoke" else "smoke + full");
    run_control ppf ~smoke ~baseline
  end
  else if netwide then begin
    Format.fprintf ppf "SilkRoad bench — netwide mode (%s)@."
      (if smoke then "smoke" else "smoke + full");
    run_netwide ppf ~smoke ~baseline
  end
  else if replay then begin
    Format.fprintf ppf "SilkRoad bench — replay mode (%s%s)@."
      (if smoke then "smoke" else "smoke + full")
      (if scale then " + full-scale" else "");
    run_replay ppf ~smoke ~scale ~connections ~baseline
  end
  else if smoke then begin
    (* `make check` entry point: reference run + snapshot, plus the
       micro-benchmarks as fast timed loops *)
    Format.fprintf ppf "SilkRoad bench — smoke mode@.";
    emit_telemetry ppf "BENCH_telemetry.json";
    if not skip_micro then run_micro_fast ppf
  end
  else begin
    Format.fprintf ppf "SilkRoad paper reproduction — %s mode@."
      (if quick then "quick" else "full");
    (match only with
     | Some id ->
       (match Experiments.Registry.find id with
        | Some e -> e.Experiments.Registry.run ~quick ppf
        | None ->
          Format.fprintf ppf "unknown experiment %S; available:@." id;
          List.iter
            (fun e -> Format.fprintf ppf "  %-16s %s@." e.Experiments.Registry.id e.Experiments.Registry.title)
            Experiments.Registry.all)
     | None ->
       Experiments.Registry.run_all ~quick ppf;
       if not skip_micro then run_micro ppf;
       emit_telemetry ppf "BENCH_telemetry.json")
  end;
  Format.pp_print_flush ppf ()

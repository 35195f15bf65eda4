(* The CI-gated benchmarks. Each section writes one committed report
   and, with --baseline, gates on it:

     --replay [--full-scale [--connections N]]   BENCH_replay.json
     --control                                   BENCH_control.json
     --netwide                                   BENCH_netwide.json

   --smoke runs only the section's CI-speed operating point. The paper
   reproduction is `silkroad_cli experiments`, the chaos soak is
   `make soak`, and per-primitive timings are perfbench's traced run. *)

(* ----- the replay benchmark (BENCH_replay.json) -----

   One operating point per section: --smoke is the CI gate (6K
   connections), full is the paper-scale point (4 VIPs x 5000 conn/s x
   50 s = 1M connections). Every mode replays the identical packed
   trace; the driver run is the scalar baseline every mode's speedup is
   measured against. *)

(* Minor words allocated so far by every domain, live or joined:
   [Gc.minor_words] counts only the calling domain, which misses the
   parallel legs' workers. The [Gc.minor] flushes this domain's own
   minor heap into the totals [Gc.quick_stat] sums. *)
let all_minor_words () =
  Gc.minor ();
  (Gc.quick_stat ()).Gc.minor_words

(* This process's peak resident set so far, MB: VmHWM from
   /proc/self/status, or nan where there is none. *)
let vm_hwm_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | status ->
    List.fold_left
      (fun acc line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | kb :: _ -> float_of_int (int_of_string kb) /. 1024.
          | [] -> acc)
        | _ -> acc)
      Float.nan (String.split_on_char '\n' status)
  | exception Sys_error _ -> Float.nan

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
  let trace, compile_s =
    Harness.Stopwatch.time (fun () ->
        Harness.Packed_trace.compile ~horizon:s.Experiments.Common.horizon
          s.Experiments.Common.flows)
  in
  Format.fprintf ppf "  trace compiled in %.2f s (%d packets)@." compile_s
    (Harness.Packed_trace.n_packets trace);
  let _sw, balancer = Experiments.Common.silkroad ~vips () in
  let d, driver_s =
    Harness.Stopwatch.time (fun () -> Harness.Driver.run ~balancer ~trace ~updates:[] ())
  in
  let driver_pps = float_of_int d.Harness.Driver.packets /. driver_s in
  Format.fprintf ppf "  %-16s %10.2e pkt/s  %8.1f ns/pkt  (%d packets)@." "driver" driver_pps
    (driver_s *. 1e9 /. float_of_int d.Harness.Driver.packets)
    d.Harness.Driver.packets;
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
     handoff itself is losing — the regression this ratio guards.
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
  let trace, compile_s, generate_hwm, compile_bytes =
    let s =
      Experiments.Common.scenario ~conns_per_sec_per_vip ~updates_per_min:0. ~trace_seconds ()
    in
    let generate_hwm = vm_hwm_mb () in
    let bytes0 = Gc.allocated_bytes () in
    let trace, compile_s =
      Harness.Stopwatch.time (fun () ->
          Harness.Packed_trace.compile ~horizon:s.Experiments.Common.horizon
            s.Experiments.Common.flows)
    in
    (trace, compile_s, generate_hwm, Gc.allocated_bytes () -. bytes0)
  in
  let compile_hwm = vm_hwm_mb () in
  let n_packets = Harness.Packed_trace.n_packets trace in
  let compile_bytes_per_packet = compile_bytes /. float_of_int (Int.max 1 n_packets) in
  Gc.full_major ();
  Format.fprintf ppf "  trace compiled in %.2f s (%d flows, %d packets)@." compile_s
    (Harness.Packed_trace.n_flows trace) n_packets;
  Format.fprintf ppf
    "  VmHWM %.0f MB after generate, %.0f MB after compile; compile allocated %.1f B/packet@."
    generate_hwm compile_hwm compile_bytes_per_packet;
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
  let f k v = ("full10m_" ^ k, v) in
  [ f "target_connections" (Telemetry.Json.Int connections);
    f "connections" (Telemetry.Json.Int rs.Harness.Replay.connections);
    f "packets" (Telemetry.Json.Int rs.Harness.Replay.packets);
    f "auto_shards" (Telemetry.Json.Int auto); f "compile_s" (Telemetry.Json.Float compile_s);
    f "generate_vm_hwm_mb" (Telemetry.Json.Float generate_hwm);
    f "compile_vm_hwm_mb" (Telemetry.Json.Float compile_hwm);
    f "compile_bytes_per_packet" (Telemetry.Json.Float compile_bytes_per_packet);
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
  let flows = Experiments.Common.fabric_flows ~seed:777 ~n:n_flows ~span:25. vips in
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

(* The fields of a bench JSON file; [None] when it is missing or not a
   JSON object. *)
let read_fields path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error _ -> None
  | content ->
    (match Telemetry.Json.parse content with
     | Ok (Telemetry.Json.Obj fields) -> Some fields
     | Ok _ | Error _ -> None)

(* The CI regression gate: this run's [key] must reach 70% of the
   committed baseline's. A baseline without the key skips the gate; a
   run that did not produce it as a float is a broken bench, not a
   regression. *)
let check_baseline ppf ~file ~key fields =
  let base =
    match read_fields file with
    | None ->
      Format.fprintf ppf "FATAL: baseline %s is missing or not a JSON object@." file;
      exit 1
    | Some base ->
      (match List.assoc_opt key base with
       | Some (Telemetry.Json.Float v) -> Some v
       | Some (Telemetry.Json.Int v) -> Some (float_of_int v)
       | Some _ | None -> None)
  in
  match base with
  | None ->
    Format.fprintf ppf "baseline %s has no %s; skipping regression gate@." file key;
    true
  | Some base ->
    let current =
      match List.assoc_opt key fields with
      | Some (Telemetry.Json.Float v) -> v
      | Some _ | None ->
        Format.fprintf ppf "FATAL: this run produced no float %s to gate on@." key;
        exit 1
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

(* One committed bench report: the smoke section, then (without
   [smoke]) the full one, then [extra]. Every key of the existing [file]
   this run did not produce is carried over verbatim, so `make check`
   and the CI smoke gates never clobber the offline full_ and full10m_
   numbers. With [baseline], gate on [gate_key]. *)
let run_section ppf ~file ~gate_key ~smoke ~baseline ?(extra = fun () -> []) section =
  (* bind to force smoke-before-full evaluation (and print) order *)
  let sm = section ppf ~smoke:true in
  let ran = if smoke then sm else sm @ section ppf ~smoke:false in
  let ran = ran @ extra () in
  let kept =
    List.filter
      (fun (k, _) -> not (List.mem_assoc k ran))
      (Option.value (read_fields file) ~default:[])
  in
  write_bench_json ppf file (ran @ kept);
  match baseline with
  | Some b when not (check_baseline ppf ~file:b ~key:gate_key ran) -> exit 1
  | Some _ | None -> ()


let usage =
  "usage: main.exe (--replay [--full-scale] [--connections N] | --control | --netwide) [--smoke] \
   [--baseline FILE]\n"

let () =
  let args = Array.to_list Sys.argv in
  let smoke = List.mem "--smoke" args in
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
  let mode = if smoke then "smoke" else "smoke + full" in
  if List.mem "--control" args then begin
    Format.fprintf ppf "SilkRoad bench — control mode (%s)@." mode;
    run_section ppf ~file:"BENCH_control.json" ~gate_key:"smoke_updates_per_sec" ~smoke
      ~baseline control_section
  end
  else if List.mem "--netwide" args then begin
    Format.fprintf ppf "SilkRoad bench — netwide mode (%s)@." mode;
    run_section ppf ~file:"BENCH_netwide.json" ~gate_key:"smoke_netwide_seq_pps" ~smoke
      ~baseline netwide_section
  end
  else if List.mem "--replay" args then begin
    Format.fprintf ppf "SilkRoad bench — replay mode (%s%s)@." mode
      (if scale then " + full-scale" else "");
    run_section ppf ~file:"BENCH_replay.json" ~gate_key:"smoke_batch_pps" ~smoke ~baseline
      ~extra:(fun () -> if scale then replay_scale_section ppf ~connections else [])
      replay_section
  end
  else begin
    prerr_string usage;
    exit 2
  end;
  Format.pp_print_flush ppf ()

(* The silkroad command-line tool.

   Subcommands:
     experiment <id> [--full]   reproduce one table/figure of the paper
     experiments [--full]       reproduce all of them
     list                       list experiment ids
     demo [options]             run a configurable PCC showdown between
                                balancers on a synthetic workload
     memory [options]           ConnTable/DIPPoolTable sizing calculator *)

open Cmdliner

let ppf = Format.std_formatter

let setup_logs verbose =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))

let verbose_flag =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Enable debug logging of the control plane.")

(* ---- experiment(s) ---- *)

let full_flag =
  Arg.(value & flag & info [ "full" ] ~doc:"Run at the full (slow) operating point.")

let list_cmd =
  let run () =
    List.iter
      (fun e ->
        Format.fprintf ppf "%-16s %s@." e.Experiments.Registry.id e.Experiments.Registry.title)
      Experiments.Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List the reproducible tables and figures.")
    Term.(const run $ const ())

let experiment_cmd =
  let id =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ID" ~doc:"Experiment id (see list).")
  in
  let run id full verbose =
    setup_logs verbose;
    match Experiments.Registry.find id with
    | Some e ->
      e.Experiments.Registry.run ~quick:(not full) ppf;
      `Ok ()
    | None -> `Error (false, Printf.sprintf "unknown experiment %S (try `silkroad list`)" id)
  in
  Cmd.v (Cmd.info "experiment" ~doc:"Reproduce one table or figure of the paper.")
    Term.(ret (const run $ id $ full_flag $ verbose_flag))

let experiments_cmd =
  let run full = Experiments.Registry.run_all ~quick:(not full) ppf in
  Cmd.v (Cmd.info "experiments" ~doc:"Reproduce every table and figure.")
    Term.(const run $ full_flag)

(* ---- demo ---- *)

(* Write a JSON object keyed by balancer name, each value a full registry
   snapshot, e.g. {"silkroad": [...], "slb": [...]}. *)
let write_metrics_json path named_snapshots =
  let json =
    Telemetry.Json.Obj
      (List.map (fun (name, s) -> (name, Telemetry.Snapshot.to_json_value s)) named_snapshots)
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Telemetry.Json.to_string_pretty json);
      output_char oc '\n')

let metrics_json_flag =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-json" ] ~docv:"FILE"
        ~doc:"Write every balancer's telemetry snapshot to $(docv) as JSON.")

let demo_cmd =
  let conns =
    Arg.(value & opt float 100. & info [ "rate" ] ~docv:"CONNS" ~doc:"New connections per second.")
  in
  let updates =
    Arg.(value & opt float 10. & info [ "updates" ] ~docv:"N" ~doc:"DIP pool updates per minute.")
  in
  let seconds =
    Arg.(value & opt float 300. & info [ "seconds" ] ~docv:"S" ~doc:"Trace duration in seconds.")
  in
  let dips = Arg.(value & opt int 8 & info [ "dips" ] ~docv:"N" ~doc:"DIPs in the pool.") in
  let run rate updates seconds dips metrics_json verbose =
    setup_logs verbose;
    let scenario =
      Experiments.Common.scenario ~n_vips:1 ~dips_per_vip:dips ~conns_per_sec_per_vip:rate
        ~updates_per_min:updates ~trace_seconds:seconds ()
    in
    let vips = Experiments.Common.vips_of ~n_vips:1 ~dips_per_vip:dips in
    Format.fprintf ppf "%d connections, %d updates over %.0fs:@."
      (List.length scenario.Experiments.Common.flows)
      (List.length scenario.Experiments.Common.updates)
      seconds;
    let snapshots = ref [] in
    let report balancer =
      let r = Experiments.Common.run balancer scenario in
      snapshots :=
        (r.Harness.Driver.balancer_name, r.Harness.Driver.telemetry) :: !snapshots;
      Format.fprintf ppf "  %a@." Harness.Driver.pp_result r
    in
    report (Baselines.Ecmp_lb.create_with ~seed:1 vips);
    let slb, _ = Baselines.Slb.create ~seed:1 ~vips () in
    report slb;
    let duet, _ =
      Baselines.Duet.create ~seed:1 ~policy:(Baselines.Duet.Migrate_every 600.) ~vips ()
    in
    report duet;
    let _, silkroad = Experiments.Common.silkroad ~vips () in
    report silkroad;
    match metrics_json with
    | None -> ()
    | Some path ->
      write_metrics_json path (List.rev !snapshots);
      Format.fprintf ppf "wrote telemetry snapshots to %s@." path
  in
  Cmd.v
    (Cmd.info "demo" ~doc:"Run all four balancers on the same workload and compare PCC.")
    Term.(const run $ conns $ updates $ seconds $ dips $ metrics_json_flag $ verbose_flag)

(* ---- chaos ---- *)

let chaos_cmd =
  let scenario_arg =
    Arg.(
      value
      & opt string "dip-mass-failure"
      & info [ "scenario" ] ~docv:"NAME"
          ~doc:"Chaos scenario to run (use $(b,--list) to enumerate).")
  in
  let list_flag = Arg.(value & flag & info [ "list" ] ~doc:"List built-in scenarios and exit.") in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Deterministic seed.") in
  let seconds =
    Arg.(value & opt (some float) None & info [ "seconds" ] ~docv:"S" ~doc:"Trace length in seconds.")
  in
  let rate =
    Arg.(
      value
      & opt (some float) None
      & info [ "rate" ] ~docv:"CONNS" ~doc:"New connections per second per VIP.")
  in
  let dips =
    Arg.(value & opt (some int) None & info [ "dips" ] ~docv:"N" ~doc:"DIPs per VIP pool.")
  in
  let balancer_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "balancer" ] ~docv:"NAME"
          ~doc:"Run one balancer only (silkroad, slb, duet, ecmp); default runs all four.")
  in
  let report_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "report" ] ~docv:"FILE"
          ~doc:
            "Write the chaos report as JSON to $(docv). With several balancers, the balancer \
             name is inserted before the extension.")
  in
  let smoke_flag =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:"CI-speed operating point: one scenario cycle, a small workload.")
  in
  let max_broken =
    Arg.(
      value
      & opt (some float) None
      & info [ "max-broken" ] ~docv:"FRAC"
          ~doc:
            "Exit non-zero if any run's broken-connection fraction exceeds $(docv). Without \
             it, 0.001 is enforced for silkroad only.")
  in
  let run scenario_name list seed seconds rate dips balancer report smoke max_broken metrics_json
      verbose =
    setup_logs verbose;
    if list then begin
      List.iter (fun s -> Format.fprintf ppf "%a@.@." Chaos.Scenario.pp s) Chaos.Scenario.all;
      `Ok ()
    end
    else
      match Chaos.Scenario.find scenario_name with
      | None ->
        `Error
          ( false,
            Printf.sprintf "unknown scenario %S (try `silkroad chaos --list`)" scenario_name )
      | Some scenario ->
        let spec =
          let base =
            if smoke then Experiments.Chaos_runner.smoke_spec scenario ~seed
            else Experiments.Chaos_runner.default_spec scenario ~seed
          in
          {
            base with
            Experiments.Chaos_runner.seconds = Option.value ~default:base.Experiments.Chaos_runner.seconds seconds;
            rate = Option.value ~default:base.Experiments.Chaos_runner.rate rate;
            dips_per_vip = Option.value ~default:base.Experiments.Chaos_runner.dips_per_vip dips;
          }
        in
        let balancers =
          match balancer with
          | Some b -> [ b ]
          | None -> Experiments.Chaos_runner.balancer_names
        in
        let threshold_for name =
          match max_broken with
          | Some v -> Some v
          | None when String.equal name "silkroad" -> Some 0.001
          | None -> None
        in
        let report_path name =
          match report with
          | None -> None
          | Some path when List.length balancers = 1 -> Some path
          | Some path ->
            Some
              (match Filename.chop_suffix_opt ~suffix:".json" path with
               | Some stem -> Printf.sprintf "%s.%s.json" stem name
               | None -> Printf.sprintf "%s.%s" path name)
        in
        Format.fprintf ppf "chaos %s seed=%d (%.0fs, %d vip(s) x %d dips, %.0f conns/s/vip)@."
          scenario.Chaos.Scenario.name seed spec.Experiments.Chaos_runner.seconds
          spec.Experiments.Chaos_runner.n_vips spec.Experiments.Chaos_runner.dips_per_vip
          spec.Experiments.Chaos_runner.rate;
        let snapshots = ref [] in
        let failures = ref [] in
        List.iter
          (fun name ->
            let result, rep = Experiments.Chaos_runner.run spec ~balancer:name in
            snapshots :=
              (result.Harness.Driver.balancer_name, result.Harness.Driver.telemetry)
              :: !snapshots;
            Format.fprintf ppf "@.%a@." Chaos.Report.pp rep;
            (match threshold_for name with
             | Some limit when rep.Chaos.Report.broken_fraction > limit ->
               failures :=
                 Printf.sprintf "%s: broken fraction %.6f exceeds %.6f" name
                   rep.Chaos.Report.broken_fraction limit
                 :: !failures
             | Some _ | None -> ());
            match report_path name with
            | None -> ()
            | Some path ->
              Chaos.Report.save path rep;
              Format.fprintf ppf "wrote chaos report to %s@." path)
          balancers;
        (match metrics_json with
         | None -> ()
         | Some path ->
           write_metrics_json path (List.rev !snapshots);
           Format.fprintf ppf "wrote telemetry snapshots to %s@." path);
        (match !failures with
         | [] -> `Ok ()
         | fs -> `Error (false, String.concat "; " (List.rev fs)))
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Run a named fault-injection scenario and check per-connection consistency.")
    Term.(
      ret
        (const run $ scenario_arg $ list_flag $ seed $ seconds $ rate $ dips $ balancer_arg
        $ report_arg $ smoke_flag $ max_broken $ metrics_json_flag $ verbose_flag))

(* ---- memory ---- *)

let memory_cmd =
  let conns =
    Arg.(value & opt int 10_000_000 & info [ "connections" ] ~docv:"N" ~doc:"Simultaneous connections.")
  in
  let ipv6 = Arg.(value & flag & info [ "ipv6" ] ~doc:"IPv6 connections (37-byte keys).") in
  let dips = Arg.(value & opt int 4187 & info [ "dips" ] ~docv:"N" ~doc:"Total DIPs.") in
  let run connections ipv6 dips =
    Format.fprintf ppf "ConnTable layouts for %d %s connections:@." connections
      (if ipv6 then "IPv6" else "IPv4");
    List.iter
      (fun (name, layout) ->
        let bits =
          Silkroad.Memory_model.switch_bits ~layout ~ipv6 ~digest_bits:16 ~version_bits:6
            ~connections ~versions:64 ~total_dips:dips
        in
        Format.fprintf ppf "  %-24s %8.1f MB@." name (Silkroad.Memory_model.mb bits))
      [ ("naive (5-tuple -> DIP)", Silkroad.Memory_model.Naive);
        ("digest -> DIP", Silkroad.Memory_model.Digest_only);
        ("digest -> version", Silkroad.Memory_model.Digest_version) ];
    Format.fprintf ppf "  (digest->version includes 64 versions x %d DIPs of DIPPoolTable)@." dips
  in
  Cmd.v (Cmd.info "memory" ~doc:"SRAM sizing calculator for the ConnTable layouts.")
    Term.(const run $ conns $ ipv6 $ dips)

(* ---- p4 ---- *)

let p4_cmd =
  let digest = Arg.(value & opt int 16 & info [ "digest-bits" ] ~doc:"ConnTable digest width.") in
  let conns =
    Arg.(value & opt int 1_000_000 & info [ "connections" ] ~doc:"ConnTable capacity to provision.")
  in
  let run digest conns =
    let cfg = { (Silkroad.Config.sized_for ~connections:conns) with Silkroad.Config.digest_bits = digest } in
    print_string (Silkroad.P4_sketch.emit cfg)
  in
  Cmd.v
    (Cmd.info "p4" ~doc:"Emit the SilkRoad data plane as a P4_16 program sketch.")
    Term.(const run $ digest $ conns)

(* ---- trace generate ---- *)

let trace_generate_cmd =
  let flows_path =
    Arg.(value & opt string "flows.trace" & info [ "flows" ] ~docv:"FILE" ~doc:"Flow trace output file.")
  in
  let script_path =
    Arg.(
      value & opt string "updates.script"
      & info [ "script" ] ~docv:"FILE"
          ~doc:
            "Serve script output file: the VIPs with their full pools, the update schedule, \
             then drain, stats and quit. Replay with serve --script FILE --flows FILE.")
  in
  let rate = Arg.(value & opt float 100. & info [ "rate" ] ~doc:"New connections per second.") in
  let upd = Arg.(value & opt float 10. & info [ "upd-per-min" ] ~doc:"Updates per minute.") in
  let seconds = Arg.(value & opt float 300. & info [ "seconds" ] ~doc:"Trace length in seconds.") in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Deterministic seed.") in
  let run flows_path script_path rate upd seconds seed =
    let n_vips = 1 and dips_per_vip = 8 in
    let s =
      Experiments.Common.scenario ~seed ~n_vips ~dips_per_vip ~conns_per_sec_per_vip:rate
        ~updates_per_min:upd ~trace_seconds:seconds ()
    in
    Simnet.Trace_io.save_flows flows_path s.Experiments.Common.flows;
    let vip_adds =
      List.map
        (fun (v, pool) -> Control.Protocol.Vip_add (v, Array.to_list (Lb.Dip_pool.members pool)))
        (Experiments.Common.vips_of ~n_vips ~dips_per_vip)
    in
    Out_channel.with_open_text script_path (fun oc ->
        List.iter
          (fun cmd ->
            output_string oc (Control.Protocol.render { Control.Protocol.seq = None; cmd });
            output_char oc '\n')
          (vip_adds
          @ Control.Protocol.of_updates s.Experiments.Common.updates
          @ [ Control.Protocol.Drain; Control.Protocol.Stats None; Control.Protocol.Quit ]));
    Format.fprintf ppf "wrote %d flows to %s and %d updates to %s@."
      (List.length s.Experiments.Common.flows)
      flows_path
      (List.length s.Experiments.Common.updates)
      script_path
  in
  Cmd.v
    (Cmd.info "trace-generate"
       ~doc:"Generate a synthetic flow trace and its update schedule as a serve script.")
    Term.(const run $ flows_path $ script_path $ rate $ upd $ seconds $ seed)

(* ---- netwide ---- *)

let netwide_cmd =
  let tors = Arg.(value & opt int 2 & info [ "tors" ] ~docv:"N" ~doc:"ToR switches.") in
  let aggs =
    Arg.(value & opt int 0 & info [ "aggs" ] ~docv:"N" ~doc:"Aggregation (transit) switches.")
  in
  let flows_n =
    Arg.(value & opt int 2000 & info [ "flows" ] ~docv:"N" ~doc:"Connections in the trace.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Deterministic seed.") in
  let fail_at =
    Arg.(
      value & opt float 30.
      & info [ "fail-at" ] ~docv:"T"
          ~doc:"Fail the first ToR at $(docv) virtual seconds (negative disables).")
  in
  let downtime =
    Arg.(value & opt float 60. & info [ "downtime" ] ~docv:"S" ~doc:"Seconds until recovery.")
  in
  let update_at =
    Arg.(
      value & opt float 30.4
      & info [ "update-at" ] ~docv:"T"
          ~doc:
            "Remove a DIP from the first VIP's pool at $(docv), concurrent with the re-route \
             (negative disables).")
  in
  let stall_at =
    Arg.(
      value & opt float 29.
      & info [ "stall-at" ] ~docv:"T"
          ~doc:"Inject a 1M-item switch-CPU backlog at $(docv) (negative disables).")
  in
  let parallel =
    Arg.(value & flag & info [ "parallel" ] ~doc:"Drive the switches on a Domain worker group.")
  in
  let run tors aggs flows_n seed fail_at downtime update_at stall_at parallel metrics_json
      verbose =
    setup_logs verbose;
    if tors < 1 then `Error (false, "--tors must be >= 1")
    else begin
      let vips = Experiments.Common.vips_of ~n_vips:4 ~dips_per_vip:8 in
      let layer name switches sram_budget_bits =
        { Silkroad.Assignment.layer_name = name; switches; sram_budget_bits;
          capacity_gbps = 10_000. }
      in
      let sram = 50 * 8 * 1024 * 1024 in
      let layers =
        (layer "core" 1 0 :: (if aggs > 0 then [ layer "agg" aggs 0 ] else []))
        @ [ layer "tor" tors sram ]
      in
      let topo = Netwide.Topology.build ~layers ~vips () in
      let flows = Experiments.Common.fabric_flows ~seed ~n:flows_n ~span:25. vips in
      let trace = Harness.Packed_trace.compile ~probe_interval:1. ~horizon:120. flows in
      let controls =
        (if stall_at >= 0. then [ (stall_at, Harness.Replay.Cpu_backlog 1_000_000) ] else [])
        @
        if update_at >= 0. then begin
          let vip0, pool0 = List.hd vips in
          Harness.Replay.controls_of_updates ~horizon:120.
            [ (update_at, vip0, Lb.Balancer.Dip_remove (Lb.Dip_pool.members pool0).(0)) ]
        end
        else []
      in
      let first_tor = topo.Netwide.Topology.layer_nodes.(List.length layers - 1).(0) in
      let events =
        if fail_at >= 0. && tors > 1 then
          [ (fail_at, Netwide.Replay.Switch_down first_tor.Netwide.Topology.node_id);
            (fail_at +. downtime, Netwide.Replay.Switch_up first_tor.Netwide.Topology.node_id) ]
        else []
      in
      Format.fprintf ppf "%a@." Netwide.Topology.pp topo;
      let r = Netwide.Replay.run ~parallel ~topo ~trace ~controls ~events () in
      Format.fprintf ppf
        "netwide: conns=%d broken=%d packets=%d dropped=%d violations=%d moved=%d  %.2e pkt/s@."
        r.Netwide.Replay.connections r.Netwide.Replay.broken r.Netwide.Replay.packets
        r.Netwide.Replay.dropped r.Netwide.Replay.violations r.Netwide.Replay.moved_flows
        (float_of_int r.Netwide.Replay.packets /. r.Netwide.Replay.elapsed);
      (match metrics_json with
       | None -> ()
       | Some path ->
         write_metrics_json path
           [ ("netwide", Telemetry.Registry.snapshot r.Netwide.Replay.telemetry) ];
         Format.fprintf ppf "wrote telemetry snapshot to %s@." path);
      if r.Netwide.Replay.violations > 0 then begin
        Format.fprintf ppf "network-wide PCC VIOLATED (%d packets)@." r.Netwide.Replay.violations;
        `Error (false, "network-wide PCC violated")
      end
      else begin
        Format.fprintf ppf "network-wide PCC held across %d re-homed flow(s)@."
          r.Netwide.Replay.moved_flows;
        `Ok ()
      end
    end
  in
  Cmd.v
    (Cmd.info "netwide"
       ~doc:
         "Replay a synthetic workload through a multi-switch topology (Core/Agg transit over \
          SilkRoad ToRs) with a ToR failure, a concurrent DIP pool update and a recovery, \
          judged by the end-to-end network-wide PCC oracle. Exits non-zero when any \
          connection's consistency is violated.")
    Term.(
      ret
        (const run $ tors $ aggs $ flows_n $ seed $ fail_at $ downtime $ update_at $ stall_at
        $ parallel $ metrics_json_flag $ verbose_flag))

(* ---- serve ---- *)

let serve_cmd =
  let script_arg =
    Arg.(value & opt (some string) None
         & info [ "script" ] ~docv:"FILE"
             ~doc:"Execute the commands in $(docv) instead of reading stdin (deterministic \
                   batch mode); acks go to stdout.")
  in
  let socket_arg =
    Arg.(value & opt (some string) None
         & info [ "socket" ] ~docv:"PATH"
             ~doc:"Listen on a Unix-domain socket at $(docv), serving clients one at a time \
                   over the same session, until one issues quit.")
  in
  let flows_arg =
    Arg.(value & opt (some string) None
         & info [ "flows" ] ~docv:"FILE"
             ~doc:"Replay this flow trace (written by trace-generate) through the switches \
                   while commands run: packets interleave with commands in virtual-time \
                   order as the session advances.")
  in
  let shards_arg =
    Arg.(value & opt int 1
         & info [ "shards" ] ~docv:"N" ~doc:"Partition flows over $(docv) switches.")
  in
  let run script socket flows_path shards metrics_json verbose =
    setup_logs verbose;
    if script <> None && socket <> None then
      `Error (false, "--script and --socket are mutually exclusive")
    else if shards < 1 then `Error (false, "--shards must be >= 1")
    else begin
      let trace =
        match flows_path with
        | None -> Ok None
        | Some p -> (
            match Simnet.Trace_io.load_flows p with
            | Error e -> Error (p ^ ": " ^ e)
            | Ok flows -> (
                let horizon =
                  List.fold_left (fun acc f -> Float.max acc (Simnet.Flow.finish f)) 0. flows
                  +. 60.
                in
                match Harness.Packed_trace.compile ~horizon flows with
                | trace -> Ok (Some trace)
                | exception Invalid_argument e -> Error (p ^ ": " ^ e)))
      in
      match trace with
      | Error e -> `Error (false, e)
      | Ok trace ->
          let session = Control.Session.create ?trace ~shards () in
          (match (script, socket) with
          | Some path, _ -> Control.Server.run_script session ~path stdout
          | _, Some path ->
              Format.fprintf ppf "# serving on %s@." path;
              Control.Server.run_socket session ~path
          | None, None -> Control.Server.run_channels session stdin stdout);
          (match metrics_json with
          | None -> ()
          | Some path ->
              write_metrics_json path
                [ ("control", Telemetry.Registry.snapshot (Control.Session.metrics session)) ];
              Format.fprintf ppf "# wrote telemetry snapshot to %s@." path);
          `Ok ()
    end
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Keep SilkRoad switches hot and apply control-plane commands (VIP/DIP updates, \
          health events, stats queries) from stdin, a script file or a Unix socket, with \
          optional concurrent replay traffic.")
    Term.(
      ret
        (const run $ script_arg $ socket_arg $ flows_arg $ shards_arg $ metrics_json_flag
        $ verbose_flag))

(* ---- lint ---- *)

let lint_cmd =
  let json_flag = Arg.(value & flag & info [ "json" ] ~doc:"Emit diagnostics as JSON.") in
  let pipeline_flag =
    Arg.(value & flag
         & info [ "pipeline" ]
             ~doc:"Run only the pipeline feasibility and network-wide assignment checks.")
  in
  let source_flag =
    Arg.(value & flag
         & info [ "source" ]
             ~doc:"Run only the source rules: the determinism lint and the unused-export and \
                   unused-option checks.")
  in
  let root =
    Arg.(value & opt string "."
         & info [ "root" ] ~docv:"DIR"
             ~doc:"Repository root whose sources are linted; the surface checks read the \
                   typed trees under $(docv)/_build/default (run dune build @check first).")
  in
  let conns =
    Arg.(value & opt (some int) None
         & info [ "connections" ] ~docv:"N"
             ~doc:"Check a configuration sized for $(docv) concurrent connections instead of \
                   the stock one.")
  in
  let vips =
    Arg.(value & opt int 1024
         & info [ "vips" ] ~docv:"N"
             ~doc:"VIP count for feasibility and the network-wide bin packing.")
  in
  let run json pipeline source root connections vips verbose =
    setup_logs verbose;
    let do_pipeline = pipeline || not source in
    let do_source = source || not pipeline in
    let cfg =
      match connections with
      | None -> Silkroad.Config.default
      | Some n -> Silkroad.Config.sized_for ~connections:n
    in
    let pipe_diags, report =
      if do_pipeline then begin
        let r, ds = Analysis.Feasibility.check_config ~vips cfg in
        let _, nds =
          Analysis.Feasibility.check_network ~layers:Analysis.Feasibility.default_layers
            ~vips:(Analysis.Feasibility.default_demands ~cfg ~vips ())
            ()
        in
        (ds @ nds, Some r)
      end
      else ([], None)
    in
    let src_diags =
      if do_source then Analysis.Source_lint.lint_dirs (Analysis.Source_lint.default_dirs ~root)
      else []
    in
    let surface = if do_source then Some (Analysis.Surface.analyze_root ~root) else None in
    let ds =
      pipe_diags @ src_diags
      @ match surface with Some r -> r.Analysis.Surface.diags | None -> []
    in
    if json then print_endline (Telemetry.Json.to_string_pretty (Analysis.Diag.list_to_json ds))
    else begin
      (match report with
       | Some r when verbose -> Format.fprintf ppf "%a@." Asic.Pipeline.pp_report r
       | _ -> ());
      (match surface with
       | Some r ->
         Format.fprintf ppf
           "# surface: %d typed trees, %d exported values, %d unused, %d test-only, %d allowed; \
            %d optional parameters, %d unused, %d test-only, %d allowed@."
           r.Analysis.Surface.units r.Analysis.Surface.exported r.Analysis.Surface.unused
           r.Analysis.Surface.test_only r.Analysis.Surface.allowed r.Analysis.Surface.options
           r.Analysis.Surface.opt_unused r.Analysis.Surface.opt_test_only
           r.Analysis.Surface.opt_allowed
       | None -> ());
      Format.fprintf ppf "%a@." Analysis.Diag.pp_list ds
    end;
    match Analysis.Diag.errors ds with
    | 0 -> `Ok ()
    | n -> `Error (false, Printf.sprintf "lint: %d error(s)" n)
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Check pipeline feasibility (stage/SRAM/ALU budgets), network-wide VIP placement, \
          source determinism, and unused exported values and optional parameters in lib/; \
          exit non-zero on any error-level finding.")
    Term.(ret (const run $ json_flag $ pipeline_flag $ source_flag $ root $ conns $ vips
               $ verbose_flag))

(* ---- verify ---- *)

let verify_cmd =
  let json_flag = Arg.(value & flag & info [ "json" ] ~doc:"Emit diagnostics as JSON.") in
  let races_flag =
    Arg.(value & flag
         & info [ "races" ] ~doc:"Run only the inter-procedural Domain-safety race analysis.")
  in
  let model_flag =
    Arg.(value & flag
         & info [ "model" ] ~doc:"Run only the bounded PCC model checker.")
  in
  let root =
    Arg.(value & opt string "."
         & info [ "root" ] ~docv:"DIR"
             ~doc:"Repository root; the race analysis reads the typed trees under \
                   $(docv)/_build/default/lib (run dune build first).")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"DIR"
             ~doc:"Write each mutation-killing counterexample as a serve-mode protocol \
                   script under $(docv). Replaying one also needs the counterexample's \
                   packet trace and the switch config its header names, which silkroad \
                   serve cannot take yet.")
  in
  let run json races model root out verbose =
    setup_logs verbose;
    let do_races = races || not model in
    let do_model = model || not races in
    let race_result =
      if do_races then Some (Analysis.Domain_safety.analyze_root ~root ()) else None
    in
    let model_report = if do_model then Some (Analysis.Modelcheck.run_verify ()) else None in
    let race_diags =
      match race_result with Some r -> r.Analysis.Domain_safety.diags | None -> []
    in
    let model_diags =
      match model_report with Some r -> r.Analysis.Modelcheck.rp_diags | None -> []
    in
    let ds = race_diags @ model_diags in
    (match (out, model_report) with
     | Some dir, Some report ->
       if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
       List.iter
         (fun (mu, _, killed) ->
           match killed with
           | Some (ce, _) ->
             let path =
               Filename.concat dir
                 (Printf.sprintf "counterexample-%s.txt" (Analysis.Modelcheck.mutation_name mu))
             in
             Out_channel.with_open_text path (fun oc ->
                 output_string oc (Analysis.Modelcheck.ce_script ce));
             if not json then Format.fprintf ppf "# wrote %s@." path
           | None -> ())
         report.Analysis.Modelcheck.rp_mutants
     | _ -> ());
    if json then begin
      let summary =
        Telemetry.Json.Obj
          ((match race_result with
            | None -> []
            | Some r ->
              [ ( "races",
                  Telemetry.Json.Obj
                    [ ("units", Telemetry.Json.Int r.Analysis.Domain_safety.units);
                      ("bindings", Telemetry.Json.Int r.Analysis.Domain_safety.bindings);
                      ("roots_matched", Telemetry.Json.Int r.Analysis.Domain_safety.roots_matched);
                      ("reachable", Telemetry.Json.Int r.Analysis.Domain_safety.reachable);
                      ("shared_mutable", Telemetry.Json.Int r.Analysis.Domain_safety.shared_mutable);
                      ("synchronized", Telemetry.Json.Int r.Analysis.Domain_safety.synchronized) ] ) ])
          @ (match model_report with
             | None -> []
             | Some r ->
               [ ( "model",
                   Telemetry.Json.Obj
                     (List.map
                        (fun (sc, oc) ->
                          ( sc.Analysis.Modelcheck.sc_name,
                            Telemetry.Json.Obj
                              [ ("runs", Telemetry.Json.Int oc.Analysis.Modelcheck.oc_runs);
                                ("events", Telemetry.Json.Int oc.Analysis.Modelcheck.oc_events);
                                ("violating", Telemetry.Json.Int oc.Analysis.Modelcheck.oc_violating);
                                ("recycled", Telemetry.Json.Int oc.Analysis.Modelcheck.oc_recycled) ] ))
                        r.Analysis.Modelcheck.rp_shipped) ) ])
          @ [ ("diagnostics", Analysis.Diag.list_to_json ds) ])
      in
      print_endline (Telemetry.Json.to_string_pretty summary)
    end
    else begin
      (match race_result with
       | Some r ->
         Format.fprintf ppf
           "# races: %d units, %d bindings, %d reachable from %d Domain roots@."
           r.Analysis.Domain_safety.units r.Analysis.Domain_safety.bindings
           r.Analysis.Domain_safety.reachable r.Analysis.Domain_safety.roots_matched
       | None -> ());
      Format.fprintf ppf "%a@." Analysis.Diag.pp_list ds
    end;
    match Analysis.Diag.errors ds with
    | 0 -> `Ok ()
    | n -> `Error (false, Printf.sprintf "verify: %d error(s)" n)
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Prove the update/packet interleaving discipline and hunt cross-Domain races: an \
          inter-procedural Domain-safety analysis over the compiler's typed trees \
          (--races) and a bounded exhaustive model checker of the 3-step PCC update \
          protocol with seeded mutations (--model). Exit non-zero on any error-level \
          finding.")
    Term.(ret (const run $ json_flag $ races_flag $ model_flag $ root $ out $ verbose_flag))

let () =
  let doc = "SilkRoad: stateful L4 load balancing in a switching ASIC (SIGCOMM'17 reproduction)" in
  let info = Cmd.info "silkroad" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; experiment_cmd; experiments_cmd; demo_cmd; chaos_cmd; memory_cmd; p4_cmd;
            trace_generate_cmd; netwide_cmd; serve_cmd; lint_cmd;
            verify_cmd ]))

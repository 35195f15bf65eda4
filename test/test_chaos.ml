(* Tests of the chaos engine: deterministic compilation, byte-identical
   reports, the scenario matrix (silkroad holds PCC where the baselines
   measurably break), and violation attribution. *)

let check = Alcotest.check
let tc = Alcotest.test_case

let vips () = Experiments.Common.vips_of ~n_vips:2 ~dips_per_vip:8

let scenario_exn name =
  match Chaos.Scenario.find name with
  | Some s -> s
  | None -> Alcotest.failf "missing built-in scenario %s" name

(* ---------- catalogue ---------- *)

let catalogue_names () =
  List.iter
    (fun name ->
      check Alcotest.bool name true (Option.is_some (Chaos.Scenario.find name)))
    [ "quiet"; "dip-mass-failure"; "dip-flap"; "cpu-stall"; "control-partition"; "syn-flood";
      "update-storm"; "switch-failure"; "vip-migration" ];
  check Alcotest.bool "unknown rejected" true (Option.is_none (Chaos.Scenario.find "nope"));
  (* labels stay stable: reports and dashboards key on them *)
  check Alcotest.string "label" "dip-mass-failure"
    (Chaos.Scenario.fault_label
       (Chaos.Scenario.Dip_mass_failure { at = 0.; fraction = 0.5; downtime = 1. }))

(* ---------- deterministic compilation ---------- *)

let event_key (e : Chaos.Engine.event) =
  let op =
    match e.Chaos.Engine.op with
    | Chaos.Engine.Deliver_update (v, _) -> "deliver:" ^ Netcore.Endpoint.to_string v
    | Chaos.Engine.Update_dropped (v, _) -> "dropped:" ^ Netcore.Endpoint.to_string v
    | Chaos.Engine.Update_suppressed (v, _) -> "suppressed:" ^ Netcore.Endpoint.to_string v
    | Chaos.Engine.Dip_died d -> "died:" ^ Netcore.Endpoint.to_string d
    | Chaos.Engine.Dip_recovered d -> "up:" ^ Netcore.Endpoint.to_string d
    | Chaos.Engine.Cpu_backlog n -> Printf.sprintf "cpu:%d" n
    | Chaos.Engine.Syn_packet f -> "syn:" ^ Format.asprintf "%a" Netcore.Five_tuple.pp f
    | Chaos.Engine.Switch_failed r ->
      Printf.sprintf "switch-fail:%x:%f" r.Lb.Balancer.rr_salt r.Lb.Balancer.rr_fraction
    | Chaos.Engine.Switch_recovered r ->
      Printf.sprintf "switch-up:%x:%f" r.Lb.Balancer.rr_salt r.Lb.Balancer.rr_fraction
    | Chaos.Engine.Vip_migrated r ->
      Printf.sprintf "vip-migrate:%s"
        (match r.Lb.Balancer.rr_vip with
         | Some v -> Netcore.Endpoint.to_string v
         | None -> "*")
  in
  Printf.sprintf "%.9f|%s|%s" e.Chaos.Engine.time e.Chaos.Engine.fault op

let compile_deterministic () =
  List.iter
    (fun s ->
      let compile () =
        Chaos.Engine.compile ~scenario:(scenario_exn s) ~seed:42 ~vips:(vips ()) ~horizon:260.
      in
      let a = compile () and b = compile () in
      check Alcotest.(list string) (s ^ " identical timelines")
        (List.map event_key a.Chaos.Engine.events)
        (List.map event_key b.Chaos.Engine.events);
      (* and a different seed actually changes randomized scenarios *)
      if not (String.equal s "quiet") then begin
        let c =
          Chaos.Engine.compile ~scenario:(scenario_exn s) ~seed:43 ~vips:(vips ()) ~horizon:260.
        in
        check Alcotest.bool (s ^ " nonempty") true (a.Chaos.Engine.events <> []);
        ignore c
      end)
    [ "dip-mass-failure"; "control-partition"; "syn-flood"; "update-storm"; "switch-failure";
      "vip-migration" ]

let events_sorted_and_bounded () =
  List.iter
    (fun s ->
      let c =
        Chaos.Engine.compile ~scenario:(scenario_exn s) ~seed:7 ~vips:(vips ()) ~horizon:260.
      in
      let last = ref neg_infinity in
      List.iter
        (fun (e : Chaos.Engine.event) ->
          check Alcotest.bool "sorted" true (e.Chaos.Engine.time >= !last);
          check Alcotest.bool "within horizon" true
            (e.Chaos.Engine.time >= 0. && e.Chaos.Engine.time < 260.);
          last := e.Chaos.Engine.time)
        c.Chaos.Engine.events)
    [ "dip-mass-failure"; "dip-flap"; "cpu-stall"; "control-partition"; "syn-flood";
      "update-storm"; "switch-failure"; "vip-migration" ]

(* Delivered updates must always be applicable: replaying them through
   Lb.Balancer.apply_update must never raise, whatever was dropped or
   delayed by the control-channel fault. *)
let delivered_updates_consistent () =
  List.iter
    (fun seed ->
      let c =
        Chaos.Engine.compile
          ~scenario:(scenario_exn "control-partition")
          ~seed ~vips:(vips ()) ~horizon:500.
      in
      let pools = Hashtbl.create 4 in
      List.iter (fun (v, p) -> Hashtbl.replace pools v p) (vips ());
      List.iter
        (fun (e : Chaos.Engine.event) ->
          match e.Chaos.Engine.op with
          | Chaos.Engine.Deliver_update (v, u) ->
            let pool = Hashtbl.find pools v in
            let pool' = Lb.Balancer.apply_update pool u in
            check Alcotest.bool "pool never emptied" false (Lb.Dip_pool.is_empty pool');
            Hashtbl.replace pools v pool'
          | _ -> ())
        c.Chaos.Engine.events)
    [ 1; 2; 3; 4; 5 ]

let attribution_windows () =
  let c =
    Chaos.Engine.compile ~scenario:(scenario_exn "dip-mass-failure") ~seed:1 ~vips:(vips ())
      ~horizon:260.
  in
  (* inside the failure window: attributed to the fault *)
  check
    Alcotest.(option string)
    "inside" (Some "dip-mass-failure")
    (Chaos.Engine.active_fault c ~now:31.);
  (* before anything happened: no active fault *)
  check Alcotest.(option string) "before" None (Chaos.Engine.active_fault c ~now:1.)

(* ---------- end-to-end determinism: byte-identical reports ---------- *)

let report_bytes_identical () =
  let run () =
    let spec =
      Experiments.Chaos_runner.smoke_spec (scenario_exn "control-partition") ~seed:5
    in
    let _, report = Experiments.Chaos_runner.run spec ~balancer:"duet" in
    Chaos.Report.to_json report
  in
  check Alcotest.string "same seed, same bytes" (run ()) (run ())

(* ---------- the scenario matrix ---------- *)

let pcc_budget = 0.001

let matrix_run scenario_name balancer =
  let spec =
    {
      (Experiments.Chaos_runner.default_spec (scenario_exn scenario_name) ~seed:1) with
      Experiments.Chaos_runner.rate = 50.;
    }
  in
  Experiments.Chaos_runner.run spec ~balancer

let matrix_scenario scenario_name () =
  let _, silkroad = matrix_run scenario_name "silkroad" in
  let _, duet = matrix_run scenario_name "duet" in
  check Alcotest.bool
    (Printf.sprintf "silkroad holds PCC under %s (broken %.6f)" scenario_name
       silkroad.Chaos.Report.broken_fraction)
    true
    (silkroad.Chaos.Report.broken_fraction <= pcc_budget);
  check Alcotest.bool
    (Printf.sprintf "duet measurably breaks under %s (broken %.6f)" scenario_name
       duet.Chaos.Report.broken_fraction)
    true
    (duet.Chaos.Report.broken_fraction > pcc_budget)

let matrix_mass_failure = matrix_scenario "dip-mass-failure"
let matrix_cpu_stall = matrix_scenario "cpu-stall"

(* The re-route scenarios: a switch failure (or VIP migration) wipes the
   per-connection state of the affected flows while a pool update is
   in flight behind a stalled switch CPU. The probe interval is small so
   re-routed connections re-arrive inside the §4.3 pending window —
   silkroad's TransitTable pins them to the old version, while slb
   re-selects against the already-shifted pool and duet remaps them on
   migrate-back. *)
let reroute_run scenario_name balancer =
  let spec =
    {
      (Experiments.Chaos_runner.default_spec (scenario_exn scenario_name) ~seed:1) with
      Experiments.Chaos_runner.rate = 30.;
      probe_interval = 2.5;
    }
  in
  Experiments.Chaos_runner.run spec ~balancer

let matrix_reroute scenario_name () =
  let _, silkroad = reroute_run scenario_name "silkroad" in
  check Alcotest.bool
    (Printf.sprintf "silkroad survives the re-route under %s (broken %.6f)" scenario_name
       silkroad.Chaos.Report.broken_fraction)
    true
    (silkroad.Chaos.Report.broken_fraction <= pcc_budget);
  List.iter
    (fun baseline ->
      let _, report = reroute_run scenario_name baseline in
      check Alcotest.bool
        (Printf.sprintf "%s measurably breaks on re-route under %s (broken %.6f)" baseline
           scenario_name report.Chaos.Report.broken_fraction)
        true
        (report.Chaos.Report.broken_fraction > pcc_budget))
    [ "duet"; "slb" ]

let matrix_switch_failure = matrix_reroute "switch-failure"
let matrix_vip_migration = matrix_reroute "vip-migration"

(* Every violation is attributed: the per-fault chaos.violations labels
   sum to the unlabeled total, which equals the harness's own count. *)
let attribution_complete () =
  let result, report = matrix_run "dip-mass-failure" "duet" in
  let labeled = List.fold_left (fun acc (_, v) -> acc + v) 0 report.Chaos.Report.violations_by_fault in
  check Alcotest.int "labels sum to total" report.Chaos.Report.violation_packets labeled;
  check
    Alcotest.(option int)
    "total in telemetry"
    (Some report.Chaos.Report.violation_packets)
    (Snap.counter result.Harness.Driver.telemetry "chaos.violations");
  (* the chaos counters ride in the run's merged snapshot *)
  List.iter
    (fun name ->
      check Alcotest.bool (name ^ " present") true
        (Option.is_some (Snap.counter result.Harness.Driver.telemetry name)))
    [ "chaos.updates_delivered"; "chaos.dips_failed"; "chaos.dips_recovered" ];
  (* and the bulk of the blame lands on the injected fault *)
  let mass =
    match List.assoc_opt "dip-mass-failure" report.Chaos.Report.violations_by_fault with
    | Some v -> v
    | None -> 0
  in
  check Alcotest.bool "mostly attributed to the fault" true
    (report.Chaos.Report.violation_packets = 0
    || float_of_int mass /. float_of_int report.Chaos.Report.violation_packets > 0.5)

(* silkroad's zero-violation runs still carry the fault accounting *)
let quiet_scenario_clean () =
  let spec = Experiments.Chaos_runner.smoke_spec (scenario_exn "quiet") ~seed:2 in
  let result, report = Experiments.Chaos_runner.run spec ~balancer:"silkroad" in
  check Alcotest.int "no broken connections" 0 report.Chaos.Report.broken_connections;
  check Alcotest.bool "background churn delivered" true
    (match Snap.counter result.Harness.Driver.telemetry "chaos.updates_delivered" with
     | Some n -> n > 0
     | None -> false)

(* ---------- report serialization ---------- *)

let report_json_shape () =
  let spec = Experiments.Chaos_runner.smoke_spec (scenario_exn "dip-mass-failure") ~seed:9 in
  let _, report = Experiments.Chaos_runner.run spec ~balancer:"silkroad" in
  let json = Chaos.Report.to_json report in
  match Telemetry.Json.parse json with
  | Error e -> Alcotest.failf "report does not parse: %s" e
  | Ok v ->
    let str_field f =
      match Telemetry.Json.member f v with
      | Some (Telemetry.Json.String s) -> s
      | _ -> Alcotest.failf "missing string field %s" f
    in
    check Alcotest.string "scenario" "dip-mass-failure" (str_field "scenario");
    check Alcotest.string "balancer" "silkroad" (str_field "balancer");
    (match Telemetry.Json.member "violations_by_fault" v with
     | Some (Telemetry.Json.Obj _) -> ()
     | _ -> Alcotest.fail "missing violations_by_fault object")

let suites =
  [
    ( "chaos.scenario",
      [
        tc "catalogue" `Quick catalogue_names;
        tc "compile deterministic" `Quick compile_deterministic;
        tc "events sorted+bounded" `Quick events_sorted_and_bounded;
        tc "delivered updates consistent" `Quick delivered_updates_consistent;
        tc "attribution windows" `Quick attribution_windows;
      ] );
    ( "chaos.soak",
      [
        tc "report bytes identical" `Quick report_bytes_identical;
        tc "matrix: dip-mass-failure" `Slow matrix_mass_failure;
        tc "matrix: cpu-stall" `Slow matrix_cpu_stall;
        tc "matrix: switch-failure" `Slow matrix_switch_failure;
        tc "matrix: vip-migration" `Slow matrix_vip_migration;
        tc "attribution complete" `Slow attribution_complete;
        tc "quiet scenario clean" `Quick quiet_scenario_clean;
        tc "report json shape" `Quick report_json_shape;
      ] );
  ]

(* Aggregates every library's suites into one alcotest run. *)
let () =
  Alcotest.run "silkroad"
    (Test_netcore.suites @ Test_asic.suites @ Test_simnet.suites @ Test_telemetry.suites
     @ Test_lb.suites @ Test_baselines.suites @ Test_silkroad.suites @ Test_harness.suites
     @ Test_experiments.suites @ Test_chaos.suites @ Test_analysis.suites @ Test_coverage.suites
     @ Test_integration.suites @ Test_replay.suites @ Test_netwide.suites
     @ Test_control.suites @ Test_verify.suites @ Test_alloc.suites)

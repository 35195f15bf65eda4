(* The serve-mode control plane: protocol codec properties, session
   semantics, and the headline identity — a scripted serve session is
   counter-identical (down to the merged switch telemetry snapshot) to a
   batch replay of the same trace with the equivalent control list,
   because both drive the very same Replay.Stepper calls in the same
   order.

   Scripts carry relative [advance] deltas, so the batch leg applies
   each control at the clock the session reaches by summing them
   ([script_controls]); control times need not be exactly representable
   as sums. *)

let check = Alcotest.check
let tc = Alcotest.test_case

module P = Control.Protocol

(* ----- generators ----- *)

let gen_endpoint =
  QCheck.Gen.(
    map
      (fun (a, b, c, d, port) -> Netcore.Endpoint.v4 a b c d port)
      (tup5 (int_range 1 255) (int_range 0 255) (int_range 0 255) (int_range 0 255)
         (int_range 0 65535)))

let gen_duration =
  QCheck.Gen.(
    oneof
      [
        return 0.;
        return 1.5;
        return 1e-9;
        return 12345.6789;
        map (fun f -> Float.abs f) (float_bound_inclusive 1e12);
      ])

let gen_query =
  QCheck.Gen.(
    map
      (fun s -> "m" ^ s)
      (string_size ~gen:(oneofl [ 'a'; 'z'; '0'; '9'; '.'; '_'; '-' ]) (int_bound 12)))

let gen_command =
  QCheck.Gen.(
    oneof
      [
        map2
          (fun v ds -> P.Vip_add (v, ds))
          gen_endpoint
          (list_size (int_range 1 5) gen_endpoint);
        map (fun v -> P.Vip_remove v) gen_endpoint;
        map2 (fun v d -> P.Dip_add (v, d)) gen_endpoint gen_endpoint;
        map2 (fun v d -> P.Dip_remove (v, d)) gen_endpoint gen_endpoint;
        map
          (fun (vip, old_dip, new_dip) -> P.Dip_replace { vip; old_dip; new_dip })
          (tup3 gen_endpoint gen_endpoint gen_endpoint);
        map2 (fun up d -> P.Health ((if up then `Up else `Down), d)) bool gen_endpoint;
        map (fun dt -> P.Advance dt) gen_duration;
        map (fun q -> P.Stats q) (opt gen_query);
        return P.Drain;
        return P.Quit;
      ])

let gen_line =
  QCheck.Gen.(map2 (fun seq cmd -> { P.seq; cmd }) (opt (int_bound 1_000_000)) gen_command)

let arb_line = QCheck.make ~print:P.render gen_line

let gen_payload =
  (* no newlines and no leading '@' — the two shapes the line-oriented
     framing cannot carry verbatim *)
  QCheck.Gen.(
    map
      (fun s ->
        let s = String.map (fun c -> if c = '\n' || c = '\r' then ' ' else c) s in
        if s <> "" && s.[0] = '@' then "x" ^ s else s)
      (string_size ~gen:printable (int_bound 30)))

let gen_response =
  QCheck.Gen.(
    map3
      (fun rseq ok payload -> { P.rseq; body = (if ok then Ok payload else Error payload) })
      (opt (int_bound 1_000_000))
      bool gen_payload)

let arb_response = QCheck.make ~print:P.render_response gen_response

(* ----- protocol properties ----- *)

let qcheck_line_roundtrip =
  QCheck.Test.make ~name:"render/parse round-trip (lines)" ~count:500 arb_line (fun l ->
      match P.parse (P.render l) with
      | Ok (Some l') when P.equal_line l l' -> true
      | Ok (Some l') ->
          QCheck.Test.fail_reportf "parsed %S from %S" (P.render l') (P.render l)
      | Ok None -> QCheck.Test.fail_reportf "%S parsed as blank" (P.render l)
      | Error e -> QCheck.Test.fail_reportf "%S rejected: %s" (P.render l) e)

let qcheck_response_roundtrip =
  QCheck.Test.make ~name:"render/parse round-trip (responses)" ~count:500 arb_response
    (fun r ->
      match P.parse_response (P.render_response r) with
      | Ok r' when P.equal_response r r' -> true
      | Ok r' ->
          QCheck.Test.fail_reportf "parsed %S from %S" (P.render_response r')
            (P.render_response r)
      | Error e -> QCheck.Test.fail_reportf "%S rejected: %s" (P.render_response r) e)

let qcheck_parse_total =
  QCheck.Test.make ~name:"parse never raises on garbage" ~count:1000
    QCheck.(string_gen QCheck.Gen.printable)
    (fun s ->
      (match P.parse s with Ok _ | Error _ -> ());
      (match P.parse_response s with Ok _ | Error _ -> ());
      true)

let garbage_rejected () =
  let rejected s =
    match P.parse s with
    | Error _ -> ()
    | Ok None -> Alcotest.failf "%S treated as blank" s
    | Ok (Some l) -> Alcotest.failf "%S accepted as %S" s (P.render l)
  in
  List.iter rejected
    [
      "bogus";
      "vip-add";
      "vip-add 20.0.0.1:80";
      "vip-add notanip 10.0.0.1:20";
      "dip-add 20.0.0.1:80";
      "dip-replace 20.0.0.1:80 10.0.0.1:20";
      "health sideways 10.0.0.1:20";
      "advance";
      "advance -1";
      "advance nan";
      "advance inf";
      "stats a b";
      "drain now";
      "quit 0";
      "@x quit";
      "@-3 quit";
      "@5";
    ];
  List.iter
    (fun s ->
      match P.parse s with
      | Ok None -> ()
      | Ok (Some _) | Error _ -> Alcotest.failf "%S should be blank" s)
    [ ""; "   "; "# comment"; "  # indented comment"; "\t" ]

(* Socket clients terminate lines with CRLF and the odd trailing
   tab/space; both halves of the protocol must treat those like the
   canonical line. *)
let crlf_tolerated () =
  let same canonical noisy =
    match (P.parse canonical, P.parse noisy) with
    | Ok (Some a), Ok (Some b) when P.equal_line a b -> ()
    | _, Error e -> Alcotest.failf "%S rejected: %s" noisy e
    | _, Ok None -> Alcotest.failf "%S treated as blank" noisy
    | _, Ok (Some b) -> Alcotest.failf "%S parsed as %S" noisy (P.render b)
  in
  same "quit" "quit\r";
  same "drain" "drain \r";
  same "advance 0.5" "advance 0.5\r";
  same "advance 0.5" "advance\t0.5  \t\r";
  same "vip-add 10.0.0.1:80 20.0.0.1:8080" "vip-add 10.0.0.1:80 20.0.0.1:8080\r";
  same "@7 dip-remove 10.0.0.1:80 20.0.0.1:8080" "@7  dip-remove  10.0.0.1:80  20.0.0.1:8080\r";
  (match P.parse "# comment\r" with
  | Ok None -> ()
  | _ -> Alcotest.fail "CRLF comment should be blank");
  (match P.parse "  \t\r" with
  | Ok None -> ()
  | _ -> Alcotest.fail "CRLF whitespace line should be blank")

let crlf_response_tolerated () =
  let resp s =
    match P.parse_response s with
    | Ok r -> r
    | Error e -> Alcotest.failf "%S rejected: %s" s e
  in
  let body s = (resp s).P.body in
  check (Alcotest.result Alcotest.string Alcotest.string) "bare ok" (Ok "") (body "ok\r");
  check (Alcotest.result Alcotest.string Alcotest.string) "ok with seq/payload"
    (Ok "done") (body "ok @3 done\r" );
  check (Alcotest.option Alcotest.int) "seq survives" (Some 3) (resp "ok @3 done\r").P.rseq;
  check (Alcotest.result Alcotest.string Alcotest.string) "err payload stripped"
    (Error "boom") (body "err boom \t\r");
  (* ...but a canonical (non-CRLF) line keeps its payload verbatim,
     trailing spaces included — parse_response stays the exact inverse
     of render_response *)
  check (Alcotest.result Alcotest.string Alcotest.string) "canonical trailing space kept"
    (Ok "x ") (body "ok x ");
  match P.parse_response "okx\r" with
  | Error _ -> ()
  | Ok r -> Alcotest.failf "%S accepted as %S" "okx\r" (P.render_response r)

(* ----- session semantics ----- *)

let vip k = Experiments.Common.vip k
let dip k = Experiments.Common.dip k
let e = Netcore.Endpoint.to_string

let line s =
  match P.parse s with
  | Ok (Some l) -> l
  | Ok None -> Alcotest.failf "blank command %S" s
  | Error m -> Alcotest.failf "bad test command %S: %s" s m

let expect_ok session s =
  match (Control.Session.exec session (line s)).P.body with
  | Ok payload -> payload
  | Error m -> Alcotest.failf "%S failed: %s" s m

let expect_err session s =
  match (Control.Session.exec session (line s)).P.body with
  | Ok payload -> Alcotest.failf "%S succeeded: %s" s payload
  | Error m -> m

let session_state session =
  Telemetry.Registry.snapshot (Control.Session.switch_metrics session)

let rejects_without_state_change () =
  let session = Control.Session.create () in
  ignore (expect_ok session (Printf.sprintf "vip-add %s %s %s" (e (vip 0)) (e (dip 0)) (e (dip 1))));
  let before = session_state session in
  (* parse failures *)
  (match Control.Session.exec_line session "utter garbage" with
  | Some { P.body = Error _; _ } -> ()
  | _ -> Alcotest.fail "garbage not rejected");
  (* validation failures, one per command family *)
  ignore (expect_err session (Printf.sprintf "vip-add %s %s" (e (vip 0)) (e (dip 5))));
  ignore (expect_err session (Printf.sprintf "vip-add %s %s %s" (e (vip 1)) (e (dip 5)) (e (dip 5))));
  ignore (expect_err session (Printf.sprintf "vip-remove %s" (e (vip 3))));
  ignore (expect_err session (Printf.sprintf "dip-add %s %s" (e (vip 0)) (e (dip 0))));
  ignore (expect_err session (Printf.sprintf "dip-add %s %s" (e (vip 3)) (e (dip 5))));
  ignore (expect_err session (Printf.sprintf "dip-remove %s %s" (e (vip 0)) (e (dip 7))));
  ignore (expect_err session (Printf.sprintf "dip-replace %s %s %s" (e (vip 0)) (e (dip 7)) (e (dip 8))));
  ignore (expect_err session (Printf.sprintf "dip-replace %s %s %s" (e (vip 0)) (e (dip 0)) (e (dip 1))));
  ignore (expect_err session (Printf.sprintf "health down %s" (e (dip 9))));
  ignore (expect_err session (Printf.sprintf "health up %s" (e (dip 0))));
  check Alcotest.bool "switch state unchanged" true
    (Telemetry.Snapshot.equal before (session_state session));
  check Alcotest.int "errors counted" 11
    (Telemetry.Registry.counter_value (Control.Session.control_metrics session) "control.errors")

let idempotent_redelivery () =
  let session = Control.Session.create () in
  ignore (expect_ok session (Printf.sprintf "@1 vip-add %s %s %s" (e (vip 0)) (e (dip 0)) (e (dip 1))));
  ignore (expect_ok session (Printf.sprintf "@2 dip-add %s %s" (e (vip 0)) (e (dip 2))));
  let before = session_state session in
  (* re-delivered and stale sequence numbers ack as duplicates... *)
  List.iter
    (fun s ->
      match (Control.Session.exec session (line s)).P.body with
      | Ok "duplicate" -> ()
      | Ok p -> Alcotest.failf "%S re-applied: %s" s p
      | Error m -> Alcotest.failf "%S errored: %s" s m)
    [
      Printf.sprintf "@2 dip-add %s %s" (e (vip 0)) (e (dip 2));
      Printf.sprintf "@1 vip-add %s %s %s" (e (vip 0)) (e (dip 0)) (e (dip 1));
      Printf.sprintf "@2 vip-remove %s" (e (vip 0));
    ];
  check Alcotest.bool "duplicates change nothing" true
    (Telemetry.Snapshot.equal before (session_state session));
  check Alcotest.int "duplicates counted" 3
    (Telemetry.Registry.counter_value (Control.Session.control_metrics session)
       "control.duplicates");
  (* ...an errored command does not consume its number... *)
  ignore (expect_err session (Printf.sprintf "@3 dip-add %s %s" (e (vip 0)) (e (dip 2))));
  ignore (expect_err session (Printf.sprintf "@3 dip-add %s %s" (e (vip 0)) (e (dip 2))));
  (* ...and the number is still usable by a successful retry *)
  ignore (expect_ok session (Printf.sprintf "@3 dip-add %s %s" (e (vip 0)) (e (dip 3))))

let health_semantics () =
  let session = Control.Session.create () in
  ignore (expect_ok session (Printf.sprintf "vip-add %s %s %s" (e (vip 0)) (e (dip 0)) (e (dip 1))));
  ignore (expect_ok session (Printf.sprintf "vip-add %s %s %s" (e (vip 1)) (e (dip 0)) (e (dip 2))));
  ignore (expect_ok session (Printf.sprintf "vip-add %s %s" (e (vip 2)) (e (dip 0))));
  (* withdrawn from both multi-member pools, kept in the singleton *)
  check Alcotest.string "down" (Printf.sprintf "down %s withdrawn_from=2" (e (dip 0)))
    (expect_ok session (Printf.sprintf "health down %s" (e (dip 0))));
  ignore (expect_err session (Printf.sprintf "health down %s" (e (dip 0))));
  ignore (expect_ok session "advance 30");
  check Alcotest.string "up" (Printf.sprintf "up %s restored_to=2" (e (dip 0)))
    (expect_ok session (Printf.sprintf "health up %s" (e (dip 0))));
  ignore (expect_ok session "advance 30");
  Array.iter
    (fun sw ->
      match Silkroad.Switch.check_invariants sw with
      | Ok () -> ()
      | Error vs -> Alcotest.failf "invariants: %s" (String.concat "; " vs))
    (Control.Session.switches session)

let vip_remove_drops_traffic () =
  let vips = [ (vip 0, Lb.Dip_pool.of_list [ dip 0; dip 1 ]) ] in
  let flows = Experiments.Common.fabric_flows ~seed:77 ~n:40 ~span:20. vips in
  let trace = Harness.Packed_trace.compile ~horizon:60. flows in
  let session = Control.Session.create ~vips ~trace () in
  ignore (expect_ok session "advance 10");
  let mid = Control.Session.counts session in
  ignore (expect_ok session (Printf.sprintf "vip-remove %s" (e (vip 0))));
  ignore (expect_ok session "drain");
  let final = Control.Session.counts session in
  check Alcotest.bool "packets flowed before removal" true (mid.c_packets > 0);
  check Alcotest.bool "packets kept arriving" true (final.c_packets > mid.c_packets);
  check Alcotest.int "every post-removal packet dropped"
    (final.c_packets - mid.c_packets)
    (final.c_dropped - mid.c_dropped);
  Array.iter
    (fun sw ->
      check Alcotest.int "no connections left" 0 (Silkroad.Switch.connections sw);
      match Silkroad.Switch.check_invariants sw with
      | Ok () -> ()
      | Error vs -> Alcotest.failf "invariants: %s" (String.concat "; " vs))
    (Control.Session.switches session)

(* A VIP's record lives exactly as long as the VIP: vip-remove retires
   it, and a vip-add of the same address builds a fresh one with the new
   pool, even while another VIP has an update running and one queued.
   A slow switch CPU keeps vip 1's connections pending, so its first
   update waits at the step-1 barrier and the second queues behind it. *)
let vip_readd_gets_fresh_record () =
  let vips =
    [ (vip 0, Lb.Dip_pool.of_list [ dip 0; dip 1 ]); (vip 1, Lb.Dip_pool.of_list [ dip 2; dip 3 ]) ]
  in
  let flows = Experiments.Common.fabric_flows ~seed:91 ~n:80 ~span:20. vips in
  let trace = Harness.Packed_trace.compile ~horizon:60. flows in
  let cfg = { Silkroad.Config.default with Silkroad.Config.cpu_insertions_per_sec = 1. } in
  let session = Control.Session.create ~cfg ~vips ~trace () in
  let sound cmd =
    Array.iter
      (fun sw ->
        match Silkroad.Switch.check_invariants sw with
        | Ok () -> ()
        | Error vs -> Alcotest.failf "after %S: %s" cmd (String.concat "; " vs))
      (Control.Session.switches session)
  in
  let run cmd =
    ignore (expect_ok session cmd);
    sound cmd
  in
  let sw = (Control.Session.switches session).(0) in
  (* new connections to vip 0, straight into the switch at the session's
     clock; the first packet after a command meets whatever the packet
     path kept from before it *)
  let connect ~from k =
    List.init k (fun i ->
        let flow =
          Netcore.Five_tuple.make
            ~src:(Netcore.Endpoint.v4 8 8 from (1 + i) (3000 + i))
            ~dst:(vip 0) ~proto:Netcore.Protocol.Tcp
        in
        Silkroad.Switch.process_flow sw ~now:(Control.Session.now session)
          ~flags:Netcore.Tcp_flags.syn ~payload_len:0 flow)
  in
  run "advance 5";
  run (Printf.sprintf "dip-remove %s %s" (e (vip 1)) (e (dip 2)));
  run (Printf.sprintf "dip-add %s %s" (e (vip 1)) (e (dip 2)));
  check Alcotest.int "vip 1: one update running, one queued" 2
    (Control.Session.pending_updates session);
  check Alcotest.bool "the old pool before removal" true
    (List.for_all (fun d -> List.mem d [ dip 0; dip 1 ]) (connect ~from:1 1));
  run (Printf.sprintf "vip-remove %s" (e (vip 0)));
  run (Printf.sprintf "vip-add %s %s %s" (e (vip 0)) (e (dip 4)) (e (dip 5)));
  check Alcotest.bool "new connections take the new pool" true
    (List.for_all (fun d -> List.mem d [ dip 4; dip 5 ]) (connect ~from:2 50));
  sound "new connections";
  run "advance 1";
  check Alcotest.bool "and keep taking it" true
    (List.for_all (fun d -> List.mem d [ dip 4; dip 5 ]) (connect ~from:3 50));
  sound "more new connections";
  run "drain";
  check Alcotest.int "vip 1's updates completed" 0 (Control.Session.pending_updates session)

let update_hook_observes_latency () =
  let vips = [ (vip 0, Lb.Dip_pool.of_list [ dip 0; dip 1; dip 2 ]) ] in
  (* a burst of connections arriving exactly when the update lands: their
     learning batch (1ms timeout) cannot have drained yet, so they are
     seen-but-uninserted and the step-1 barrier must take real time *)
  let burst =
    List.init 40 (fun i ->
        {
          Simnet.Flow.id = 1000 + i;
          tuple =
            Netcore.Five_tuple.make
              ~src:(Netcore.Endpoint.v4 9 9 (i / 250) (1 + (i mod 250)) (2000 + i))
              ~dst:(vip 0) ~proto:Netcore.Protocol.Tcp;
          start = 5.0;
          duration = 30.;
          bytes_per_sec = 1000.;
        })
  in
  let flows = Experiments.Common.fabric_flows ~seed:3 ~n:200 ~span:10. vips @ burst in
  let trace = Harness.Packed_trace.compile ~horizon:80. flows in
  let session = Control.Session.create ~vips ~trace () in
  ignore (expect_ok session "advance 5");
  ignore (expect_ok session (Printf.sprintf "dip-remove %s %s" (e (vip 0)) (e (dip 2))));
  ignore (expect_ok session "advance 20");
  ignore (expect_ok session (Printf.sprintf "dip-add %s %s" (e (vip 0)) (e (dip 2))));
  ignore (expect_ok session "drain");
  let reg = Control.Session.control_metrics session in
  let completed =
    (Silkroad.Switch.stats (Control.Session.switches session).(0)).updates_completed
  in
  check Alcotest.int "updates completed" 2 completed;
  match Telemetry.Registry.find_histogram reg "control.update_apply_seconds" with
  | None -> Alcotest.fail "control.update_apply_seconds missing"
  | Some h ->
      check Alcotest.int "every update observed" completed (Telemetry.Histogram.count h);
      check Alcotest.bool "with live traffic the 3-step protocol takes real time" true
        (Telemetry.Histogram.max_value h > 0.)

(* ----- scripted serve == batch replay ----- *)

let identity_updates =
  [
    (4.25, vip 0, Lb.Balancer.Dip_remove (dip 2));
    (7.5, vip 1, Lb.Balancer.Dip_add (dip 23));
    (7.5, vip 0, Lb.Balancer.Dip_add (dip 2));
    (11.75, vip 1, Lb.Balancer.Dip_replace { old_dip = dip 20; new_dip = dip 24 });
    (13., vip 2, Lb.Balancer.Dip_remove (dip 30));
    (15.25, vip 2, Lb.Balancer.Dip_add (dip 30));
  ]

(* The batch controls a script amounts to: each update at the clock the
   session holds when it runs, the running sum of the [advance]s. *)
let script_controls cmds =
  let now = ref 0. in
  List.filter_map
    (fun (cmd : P.command) ->
      let update vip u = Some (!now, Harness.Replay.Update (vip, u)) in
      match cmd with
      | Advance dt ->
          now := !now +. dt;
          None
      | Dip_add (vip, d) -> update vip (Lb.Balancer.Dip_add d)
      | Dip_remove (vip, d) -> update vip (Lb.Balancer.Dip_remove d)
      | Dip_replace { vip; old_dip; new_dip } ->
          update vip (Lb.Balancer.Dip_replace { old_dip; new_dip })
      | Vip_add _ | Vip_remove _ | Health _ | Stats _ | Drain | Quit -> None)
    cmds

(* Run [cmds] through the full parse -> session path, failing on any
   [err] ack. *)
let run_script session cmds =
  List.iter
    (fun cmd ->
      let l = P.render { P.seq = None; cmd } in
      match Control.Session.exec_line session l with
      | Some { P.body = Error m; _ } -> Alcotest.failf "%S failed: %s" l m
      | Some { P.body = Ok _; _ } | None -> ())
    cmds

(* A batch [Replay.run] whose switches all carry [vips] up front, with
   the merged telemetry of every switch it created. *)
let batch_replay ?(mode = Harness.Replay.Batch) ~vips ~trace controls =
  let captured = ref [] in
  let make_switch () =
    let sw = Silkroad.Switch.create Silkroad.Config.default in
    List.iter (fun (v, pool) -> Silkroad.Switch.add_vip sw v pool) vips;
    captured := sw :: !captured;
    sw
  in
  let r = Harness.Replay.run ~mode ~make_switch ~trace ~controls () in
  ( r,
    Telemetry.Registry.snapshot
      (Telemetry.Registry.merge_all (List.rev_map Silkroad.Switch.metrics !captured)) )

let check_same_as_batch (batch, batch_switch_snapshot) session =
  let c = Control.Session.counts session in
  check Alcotest.int "packets" batch.Harness.Replay.packets c.c_packets;
  check Alcotest.int "dropped" batch.Harness.Replay.dropped c.c_dropped;
  check Alcotest.int "connections" batch.Harness.Replay.connections c.c_connections;
  check Alcotest.int "broken" batch.Harness.Replay.broken c.c_broken;
  check Alcotest.int "violations" batch.Harness.Replay.violations c.c_violations;
  check Alcotest.bool "switch telemetry byte-identical" true
    (Telemetry.Snapshot.equal batch_switch_snapshot (session_state session));
  check Alcotest.string "switch telemetry JSON byte-identical"
    (Telemetry.Snapshot.to_json batch_switch_snapshot)
    (Telemetry.Snapshot.to_json (session_state session))

let serve_vs_batch ~shards () =
  let vips =
    [
      (vip 0, Lb.Dip_pool.of_list [ dip 0; dip 1; dip 2 ]);
      (vip 1, Lb.Dip_pool.of_list [ dip 20; dip 21; dip 22 ]);
      (vip 2, Lb.Dip_pool.of_list [ dip 30; dip 31 ]);
    ]
  in
  let flows = Experiments.Common.fabric_flows ~seed:42 ~n:150 ~span:16. vips in
  let trace = Harness.Packed_trace.compile ~horizon:40. flows in
  let cmds = P.of_updates identity_updates @ [ P.Drain; P.Quit ] in
  let mode =
    if shards > 1 then Harness.Replay.Sharded { shards; parallel = false }
    else Harness.Replay.Batch
  in
  let batch = batch_replay ~mode ~vips ~trace (script_controls cmds) in
  let session = Control.Session.create ~shards ~vips ~trace () in
  run_script session cmds;
  check_same_as_batch batch session

(* The file path end to end: a generated scenario (update times are not
   dyadic) saved and loaded through Trace_io, its pools and schedule as
   the script trace-generate writes, is byte-identical to a batch replay
   of the in-memory flows with the pools registered up front. *)
let generated_script_vs_batch () =
  let n_vips = 1 and dips_per_vip = 8 in
  let s =
    Experiments.Common.scenario ~seed:3 ~n_vips ~dips_per_vip ~conns_per_sec_per_vip:20.
      ~updates_per_min:30. ~trace_seconds:300. ()
  in
  let vips = Experiments.Common.vips_of ~n_vips ~dips_per_vip in
  let path = Filename.temp_file "silkroad" ".flows" in
  Simnet.Trace_io.save_flows path s.flows;
  let loaded =
    match Simnet.Trace_io.load_flows path with Ok fs -> fs | Error m -> Alcotest.fail m
  in
  Sys.remove path;
  let compile flows =
    let horizon =
      List.fold_left (fun acc f -> Float.max acc (Simnet.Flow.finish f)) 0. flows +. 60.
    in
    Harness.Packed_trace.compile ~horizon flows
  in
  let cmds =
    List.map (fun (v, pool) -> P.Vip_add (v, Array.to_list (Lb.Dip_pool.members pool))) vips
    @ P.of_updates s.updates
    @ [ P.Drain; P.Stats None; P.Quit ]
  in
  check Alcotest.bool "the schedule has updates" true (List.length s.updates > 50);
  let batch = batch_replay ~vips ~trace:(compile s.flows) (script_controls cmds) in
  let session = Control.Session.create ~trace:(compile loaded) () in
  run_script session cmds;
  check_same_as_batch batch session

(* vip-add flushes the packets due at or before the session clock
   first, so a SYN at exactly t=0 meets a switch without the VIP. *)
let vip_add_at_time_zero () =
  let flow id start =
    {
      Simnet.Flow.id;
      tuple =
        Netcore.Five_tuple.make
          ~src:(Netcore.Endpoint.v4 9 9 9 (1 + id) 4000)
          ~dst:(vip 0) ~proto:Netcore.Protocol.Tcp;
      start;
      duration = 5.;
      bytes_per_sec = 1000.;
    }
  in
  let trace = Harness.Packed_trace.compile ~horizon:30. [ flow 0 0.; flow 1 1. ] in
  let pool = [ dip 0; dip 1 ] in
  let up_front =
    Control.Session.create ~vips:[ (vip 0, Lb.Dip_pool.of_list pool) ] ~trace ()
  in
  let by_command = Control.Session.create ~trace () in
  run_script by_command [ P.Vip_add (vip 0, pool) ];
  List.iter (fun session -> run_script session [ P.Drain ]) [ up_front; by_command ];
  let a = Control.Session.counts up_front and b = Control.Session.counts by_command in
  check Alcotest.int "same packets" a.c_packets b.c_packets;
  check Alcotest.int "same connections" 2 b.c_connections;
  check Alcotest.(pair int int) "~vips: nothing dropped" (0, 0) (a.c_dropped, a.c_broken);
  check Alcotest.(pair int int) "vip-add at 0: the t=0 SYN dropped, its flow broken" (1, 1)
    (b.c_dropped, b.c_broken)

(* Deltas are taken from the session clock, not from the previous
   scheduled time. So an update lands exactly on its time whenever the
   clock before it is at least half that time (the subtraction is then
   exact), even right after a step that had to round; and no update is
   more than a couple of ulps off. *)
let qcheck_of_updates_on_time =
  (* alternate jumps past twice the current time, where the delta may
     round, with steps that stay under it, where it must not *)
  let gen =
    QCheck.Gen.(
      map
        (fun steps ->
          List.rev
            (snd
               (List.fold_left
                  (fun (t, acc) (jump, u) ->
                    let t = if jump then (t *. (2. +. (10. *. u))) +. u else t +. (u *. t /. 2.) in
                    (t, t :: acc))
                  (0., []) steps)))
        (list_size (int_range 1 60) (pair bool (float_bound_inclusive 1.))))
  in
  QCheck.Test.make ~name:"of_updates lands updates on time" ~count:500
    (QCheck.make ~print:QCheck.Print.(list float) gen)
    (fun times ->
      let cmds = P.of_updates (List.map (fun t -> (t, vip 0, Lb.Balancer.Dip_add (dip 0))) times) in
      let clocks = List.map fst (script_controls cmds) in
      List.fold_left2
        (fun prev t at ->
          if Float.abs (at -. t) > 2. *. Float.epsilon *. t then
            QCheck.Test.fail_reportf "update for %.17g applied at %.17g" t at;
          if t >= prev && prev >= t /. 2. && not (Float.equal at t) then
            QCheck.Test.fail_reportf "clock %.17g, update for %.17g applied at %.17g" prev t at;
          at)
        0. times clocks
      |> ignore;
      true)

let health_matches_updates () =
  (* health down/up must be byte-equivalent to the Dip_remove/Dip_add
     controls it expands to *)
  let vips =
    [
      (vip 0, Lb.Dip_pool.of_list [ dip 0; dip 1; dip 2 ]);
      (vip 1, Lb.Dip_pool.of_list [ dip 0; dip 21 ]);
    ]
  in
  let flows = Experiments.Common.fabric_flows ~seed:9 ~n:100 ~span:12. vips in
  let horizon = 30. in
  let trace = Harness.Packed_trace.compile ~horizon flows in
  let expanded =
    [
      (5.25, vip 0, Lb.Balancer.Dip_remove (dip 0));
      (5.25, vip 1, Lb.Balancer.Dip_remove (dip 0));
      (9.5, vip 0, Lb.Balancer.Dip_add (dip 0));
      (9.5, vip 1, Lb.Balancer.Dip_add (dip 0));
    ]
  in
  let batch =
    batch_replay ~vips ~trace (Harness.Replay.controls_of_updates ~horizon expanded)
  in
  let session = Control.Session.create ~vips ~trace () in
  List.iter
    (fun l -> ignore (expect_ok session l))
    [
      "advance 5.25";
      Printf.sprintf "health down %s" (e (dip 0));
      "advance 4.25";
      Printf.sprintf "health up %s" (e (dip 0));
      "drain";
    ];
  check_same_as_batch batch session

let suites =
  [
    ( "control.protocol",
      [
        QCheck_alcotest.to_alcotest qcheck_line_roundtrip;
        QCheck_alcotest.to_alcotest qcheck_response_roundtrip;
        QCheck_alcotest.to_alcotest qcheck_parse_total;
        tc "malformed lines rejected, blanks skipped" `Quick garbage_rejected;
        tc "CRLF/trailing-whitespace commands tolerated" `Quick crlf_tolerated;
        tc "CRLF responses stripped, canonical payloads verbatim" `Quick crlf_response_tolerated;
      ] );
    ( "control.session",
      [
        tc "rejects bad commands without state change" `Quick rejects_without_state_change;
        tc "idempotent re-delivery" `Quick idempotent_redelivery;
        tc "health down/up fan-out" `Quick health_semantics;
        tc "vip-remove tears down traffic" `Quick vip_remove_drops_traffic;
        tc "vip re-add gets a fresh record" `Quick vip_readd_gets_fresh_record;
        tc "update hook feeds apply-latency histogram" `Quick update_hook_observes_latency;
      ] );
    ( "control.identity",
      [
        tc "scripted serve == batch replay" `Quick (serve_vs_batch ~shards:1);
        tc "scripted serve == sharded replay" `Quick (serve_vs_batch ~shards:4);
        tc "health events == expanded updates" `Quick health_matches_updates;
        tc "saved trace + generated script == batch replay" `Quick generated_script_vs_batch;
        tc "vip-add at t=0 drops a t=0 SYN" `Quick vip_add_at_time_zero;
        QCheck_alcotest.to_alcotest qcheck_of_updates_on_time;
      ] );
  ]

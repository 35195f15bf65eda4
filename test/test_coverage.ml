(* Small-surface coverage: printers, validators and accessors that the
   larger suites exercise only incidentally. *)

let check = Alcotest.check
let tc = Alcotest.test_case

let config_validation () =
  let bad field =
    match Silkroad.Config.validate field with
    | Error _ -> true
    | Ok () -> false
  in
  check Alcotest.bool "default ok" true (Silkroad.Config.validate Silkroad.Config.default = Ok ());
  check Alcotest.bool "digest too wide" true
    (bad { Silkroad.Config.default with Silkroad.Config.digest_bits = 40 });
  check Alcotest.bool "one stage" true
    (bad { Silkroad.Config.default with Silkroad.Config.conn_table_stages = 1 });
  check Alcotest.bool "zero transit" true
    (bad { Silkroad.Config.default with Silkroad.Config.transit_bytes = 0 });
  check Alcotest.bool "negative timeout" true
    (bad { Silkroad.Config.default with Silkroad.Config.learning_timeout = -1. });
  check Alcotest.bool "create rejects bad config" true
    (try
       ignore (Silkroad.Switch.create { Silkroad.Config.default with Silkroad.Config.version_bits = 0 });
       false
     with Invalid_argument _ -> true)

let config_sizing () =
  let cfg = Silkroad.Config.sized_for ~connections:1_000_000 in
  let cap = Silkroad.Config.conn_capacity cfg in
  check Alcotest.bool "capacity covers target at 85%" true
    (float_of_int cap *. 0.85 >= 999_999.);
  check Alcotest.int "max versions" 64 (Silkroad.Config.max_versions Silkroad.Config.default)

let printers_do_not_raise () =
  let vip = Netcore.Endpoint.v4 20 0 0 1 80 in
  let strings =
    [ Format.asprintf "%a" Lb.Balancer.pp_location Lb.Balancer.Asic;
      Format.asprintf "%a" Lb.Balancer.pp_location Lb.Balancer.Slb;
      Format.asprintf "%a" Lb.Balancer.pp_update (Lb.Balancer.Dip_add vip);
      Format.asprintf "%a" Lb.Balancer.pp_update
        (Lb.Balancer.Dip_replace { old_dip = vip; new_dip = Netcore.Endpoint.v4 1 1 1 1 1 });
      Format.asprintf "%a" Simnet.Update_trace.pp_cause Simnet.Update_trace.Testing ]
  in
  List.iter (fun s -> check Alcotest.bool "non-empty" true (String.length s > 0)) strings

let prng_shuffle_permutes () =
  let rng = Simnet.Prng.create ~seed:2 in
  let arr = Array.init 50 (fun i -> i) in
  Simnet.Prng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort Int.compare sorted;
  check Alcotest.bool "same elements" true (sorted = Array.init 50 (fun i -> i));
  check Alcotest.bool "actually shuffled" true (arr <> Array.init 50 (fun i -> i))

let endpoint_hash_fold_differs () =
  let a = Netcore.Endpoint.v4 1 2 3 4 80 and b = Netcore.Endpoint.v4 1 2 3 4 81 in
  check Alcotest.bool "different ports differ" true
    (Netcore.Endpoint.hash_fold 0L a <> Netcore.Endpoint.hash_fold 0L b)

let balancer_interface_complete () =
  (* the record exposes everything the harness needs for any impl *)
  let b = Baselines.Ecmp_lb.create_with ~seed:1 [] in
  check Alcotest.string "name" "ecmp" b.Lb.Balancer.name;
  b.Lb.Balancer.advance ~now:0.;
  check Alcotest.int "connections" 0 (b.Lb.Balancer.connections ())

let memory_model_units () =
  check (Alcotest.float 1e-9) "1 MiB" 1.0 (Silkroad.Memory_model.mb (8 * 1024 * 1024));
  (* the paper's footnote-1 arithmetic: a v6 entry is 37B key + 18B action *)
  let bits =
    Silkroad.Memory_model.conn_entry_bits ~layout:Silkroad.Memory_model.Naive ~ipv6:true
      ~digest_bits:16 ~version_bits:6
  in
  check Alcotest.bool "~55 bytes + overhead" true (bits >= 55 * 8)

let suites =
  [
    ( "coverage",
      [
        tc "config validation" `Quick config_validation;
        tc "config sizing" `Quick config_sizing;
        tc "printers" `Quick printers_do_not_raise;
        tc "shuffle" `Quick prng_shuffle_permutes;
        tc "endpoint hash fold" `Quick endpoint_hash_fold_differs;
        tc "balancer record" `Quick balancer_interface_complete;
        tc "memory units" `Quick memory_model_units;
      ] );
  ]

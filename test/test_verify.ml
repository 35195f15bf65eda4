(* silkroad-verify: the Domain-safety race analysis and the bounded PCC
   model checker (ISSUE 8). *)

open Analysis
module Mc = Modelcheck

let check = Alcotest.check
let tc = Alcotest.test_case

(* ---------- races: seeded fixtures ---------- *)

let rules r = List.map (fun (d : Diag.t) -> d.Diag.rule) r.Domain_safety.diags
let fixture_roots = [ "Fix.Stepper" ]
let analyze_fix src = Domain_safety.analyze_impls ~roots:fixture_roots [ ("Fix", src) ]

let races_positive_fixtures () =
  (* direct: a toplevel Hashtbl the step function reads *)
  let r =
    analyze_fix
      {|
module Stepper = struct
  let cache : (int, int) Hashtbl.t = Hashtbl.create 16
  let step x = Hashtbl.replace cache x x; Hashtbl.length cache
end
|}
  in
  check Alcotest.int "toplevel Hashtbl flagged" 1 r.Domain_safety.shared_mutable;
  check Alcotest.(list string) "rule" [ "domain.shared-mutable" ] (rules r);
  (* a ref *)
  let r =
    analyze_fix {|
module Stepper = struct
  let hits = ref 0
  let step () = incr hits; !hits
end
|}
  in
  check Alcotest.int "toplevel ref flagged" 1 r.Domain_safety.shared_mutable;
  (* a mutable record literal *)
  let r =
    analyze_fix
      {|
module Stepper = struct
  type acc = { mutable n : int }
  let totals = { n = 0 }
  let step () = totals.n <- totals.n + 1; totals.n
end
|}
  in
  check Alcotest.int "mutable record literal flagged" 1 r.Domain_safety.shared_mutable;
  (* an array literal *)
  let r =
    analyze_fix
      {|
module Stepper = struct
  let slots = [| 0; 0; 0 |]
  let step i = slots.(i) <- slots.(i) + 1; slots.(i)
end
|}
  in
  check Alcotest.int "array literal flagged" 1 r.Domain_safety.shared_mutable

let races_interprocedural () =
  (* the maker hides behind two calls and another module: only an
     inter-procedural analysis finds it *)
  let r =
    Domain_safety.analyze_impls ~roots:[ "Fix.Stepper.step" ]
      [
        ( "Fix",
          {|
module Registry = struct
  let make () = ref []
  let global = make ()
  let push x = global := x :: !global
end
module Helper = struct
  let record x = Registry.push x
end
module Stepper = struct
  let step x = Helper.record x
end
|}
        );
      ]
  in
  check Alcotest.int "indirect maker flagged" 1 r.Domain_safety.shared_mutable;
  let d =
    List.find (fun (d : Diag.t) -> d.Diag.rule = "domain.shared-mutable") r.Domain_safety.diags
  in
  (* the witness chain names every hop from the root to the state *)
  let has needle =
    let re = Str.regexp_string needle in
    try
      ignore (Str.search_forward re d.Diag.message 0);
      true
    with Not_found -> false
  in
  check Alcotest.bool "chain from root" true (has "Fix.Stepper.step");
  check Alcotest.bool "chain through helper" true (has "record");
  check Alcotest.bool "names the global" true (has "Fix.Registry.global");
  (* an identical program whose step never calls the helper is clean:
     reachability, not definition, is what is judged *)
  let r =
    Domain_safety.analyze_impls ~roots:[ "Fix.Stepper.step" ]
      [
        ( "Fix",
          {|
module Registry = struct
  let make () = ref []
  let global = make ()
  let push x = global := x :: !global
end
module Stepper = struct
  let step x = x + 1
end
|}
        );
      ]
  in
  check Alcotest.int "unreachable mutable not flagged" 0 r.Domain_safety.shared_mutable

let races_negative_fixtures () =
  (* shard-local allocation inside the entry point is the blessed
     pattern *)
  let r =
    analyze_fix
      {|
module Stepper = struct
  let make_table () = Hashtbl.create 16
  let step x =
    let local = make_table () in
    Hashtbl.replace local x x;
    Hashtbl.length local
end
|}
  in
  check Alcotest.int "local alloc clean" 0 r.Domain_safety.shared_mutable;
  (* immutable toplevel values are fine *)
  let r =
    analyze_fix
      {|
module Stepper = struct
  let weights = [ 1; 2; 3 ]
  let step x = List.nth weights (x mod 3)
end
|}
  in
  check Alcotest.int "immutable clean" 0 r.Domain_safety.shared_mutable;
  (* the allow attribute opts the file out *)
  let r =
    analyze_fix
      {|
[@@@silkroad.allow "domain.shared-mutable"]
module Stepper = struct
  let cache = Hashtbl.create 16
  let step x = Hashtbl.replace cache x x
end
|}
  in
  check Alcotest.int "allow attribute honoured" 0 r.Domain_safety.shared_mutable;
  check Alcotest.bool "no error diags" true
    (List.for_all (fun (d : Diag.t) -> d.Diag.severity <> Diag.Error) r.Domain_safety.diags)

let races_synchronized () =
  let r =
    analyze_fix
      {|
module Stepper = struct
  let hits = Atomic.make 0
  let step () = Atomic.fetch_and_add hits 1
end
|}
  in
  check Alcotest.int "Atomic is not an error" 0 r.Domain_safety.shared_mutable;
  check Alcotest.int "but is surfaced as info" 1 r.Domain_safety.synchronized;
  check Alcotest.(list string) "rule" [ "domain.synchronized" ] (rules r)

let races_no_root_warning () =
  let r =
    Domain_safety.analyze_impls ~roots:[ "Fix.Stepper"; "Gone.Entry_point" ]
      [ ("Fix", "module Stepper = struct let step x = x end") ]
  in
  check Alcotest.bool "missing root warned" true
    (List.exists
       (fun (d : Diag.t) ->
         d.Diag.rule = "domain.no-root" && d.Diag.severity = Diag.Warning)
       r.Domain_safety.diags);
  check Alcotest.int "present root not warned" 1
    (List.length
       (List.filter (fun (d : Diag.t) -> d.Diag.rule = "domain.no-root") r.Domain_safety.diags))

(* Walk up from cwd (the test binary runs in _build/default/test) to a
   tree that has both dune-project and lib/ — inside the sandbox that is
   _build/default itself, whose lib/ carries the .cmt typed trees. *)
let repo_root () =
  let rec up d n =
    if n = 0 then None
    else if
      Sys.file_exists (Filename.concat d "dune-project")
      && Sys.file_exists (Filename.concat d "lib")
    then Some d
    else up (Filename.dirname d) (n - 1)
  in
  up (Sys.getcwd ()) 6

let races_shipped_tree_clean () =
  match repo_root () with
  | None -> ()
  | Some root -> (
    let r = Domain_safety.analyze_root ~root () in
    match r.Domain_safety.units with
    | 0 -> () (* no typed trees in this sandbox: nothing to analyze *)
    | _ ->
      Format.eprintf "%a@." Diag.pp_list
        (List.filter (fun (d : Diag.t) -> d.Diag.severity = Diag.Error) r.Domain_safety.diags);
      check Alcotest.int "no shared-mutable errors in the shipped tree" 0
        r.Domain_safety.shared_mutable;
      (* the analysis actually saw the Domain entry points and walked a
         real call graph — a silently-empty run must not pass the gate *)
      check Alcotest.bool "all roots matched" true
        (not
           (List.exists (fun (d : Diag.t) -> d.Diag.rule = "domain.no-root") r.Domain_safety.diags));
      check Alcotest.bool "roots found" true (r.Domain_safety.roots_matched > 0);
      check Alcotest.bool "graph walked" true (r.Domain_safety.reachable > 50))

(* ---------- model: shipped semantics exhaust clean ---------- *)

let multinomial xs =
  let fact n = Array.fold_left ( * ) 1 (Array.init n (fun i -> i + 1)) in
  let total = List.fold_left ( + ) 0 xs in
  List.fold_left (fun acc k -> acc / fact k) (fact total) xs

let model_shipped_exhaust () =
  List.iter
    (fun sc ->
      let oc = Mc.check_scope sc in
      let expected_orders =
        multinomial (sc.Mc.sc_updates :: sc.Mc.sc_flow_packets)
      in
      let expected_runs =
        expected_orders * List.length sc.Mc.sc_regimes * List.length sc.Mc.sc_patterns
      in
      check Alcotest.int (sc.Mc.sc_name ^ " exhausts all interleavings") expected_runs
        oc.Mc.oc_runs;
      check Alcotest.int (sc.Mc.sc_name ^ " zero PCC violations") 0 oc.Mc.oc_violating;
      check Alcotest.int (sc.Mc.sc_name ^ " zero premature recycles") 0 oc.Mc.oc_recycled;
      (* the scope's regimes must stay under the barrier deadline, or
         "zero violations" would be tested under forced transitions *)
      check Alcotest.int (sc.Mc.sc_name ^ " no forced barrier releases") 0 oc.Mc.oc_forced)
    Mc.default_scopes

let model_scope_is_big_enough () =
  (* the acceptance floor: >= 3 updates x 4 packets with forced digest
     collisions, all four collision/alias patterns, several regimes *)
  let sc = List.hd Mc.default_scopes in
  check Alcotest.bool "3 updates" true (sc.Mc.sc_updates >= 3);
  check Alcotest.bool "4 packets" true (List.fold_left ( + ) 0 sc.Mc.sc_flow_packets >= 4);
  check Alcotest.bool "collision pattern present" true
    (List.exists (fun p -> p.Mc.collide) sc.Mc.sc_patterns);
  check Alcotest.bool "alias pattern present" true
    (List.exists (fun p -> p.Mc.alias) sc.Mc.sc_patterns);
  check Alcotest.bool "several regimes" true (List.length sc.Mc.sc_regimes >= 3)

let model_forced_collisions_real () =
  (* the "collide" pattern is live on the real switch: in every regime
     the companion falsely hits the victim's entry and a SYN repairs the
     collision in some runs; the other patterns never collide *)
  List.iter
    (fun sc ->
      List.iter
        (fun rg ->
          List.iter
            (fun pat ->
              let oc =
                Mc.check_scope { sc with Mc.sc_regimes = [ rg ]; sc_patterns = [ pat ] }
              in
              let name = Printf.sprintf "%s/%s/%s" sc.Mc.sc_name rg.Mc.rg_name pat.Mc.pat_name in
              if pat.Mc.collide then begin
                check Alcotest.bool (name ^ " has false hits") true (oc.Mc.oc_false_hits > 0);
                check Alcotest.bool (name ^ " has repairs") true (oc.Mc.oc_repairs > 0)
              end
              else begin
                check Alcotest.int (name ^ " no false hits") 0 oc.Mc.oc_false_hits;
                check Alcotest.int (name ^ " no repairs") 0 oc.Mc.oc_repairs
              end)
            sc.Mc.sc_patterns)
        sc.Mc.sc_regimes)
    Mc.default_scopes

let model_determinism () =
  let sc = List.nth Mc.default_scopes 1 in
  let a = Mc.check_scope sc and b = Mc.check_scope sc in
  check Alcotest.bool "same outcome on re-run" true
    (a.Mc.oc_runs = b.Mc.oc_runs && a.Mc.oc_events = b.Mc.oc_events
    && a.Mc.oc_violating = b.Mc.oc_violating
    && a.Mc.oc_recycled = b.Mc.oc_recycled
    && List.length a.Mc.oc_counterexamples = List.length b.Mc.oc_counterexamples)

(* ---------- model: seeded mutations must be killed ---------- *)

let mutant_outcome mu = Mc.check_scope ~mutation:mu (Mc.mutation_scope mu)

let model_mutant_transit_killed () =
  let oc = mutant_outcome Mc.Transit_insert_disabled in
  let ces = oc.Mc.oc_counterexamples in
  check Alcotest.bool "the switch breaks PCC in some runs" true (oc.Mc.oc_violating > 0);
  (* the exported counterexample reproduces: replayed through
     Harness.Replay on a fresh Switch it breaks PCC *)
  let ce = List.find (fun ce -> ce.Mc.ce_kind = `Pcc) ces in
  let r = Mc.replay_on_switch ce in
  check Alcotest.bool "breaks PCC on the real switch" true (r.Harness.Replay.violations > 0);
  check Alcotest.bool "a connection is broken" true (r.Harness.Replay.broken > 0)

let model_mutant_barrier_killed () =
  let oc = mutant_outcome Mc.Barrier_force_release in
  let ce = List.find (fun ce -> ce.Mc.ce_kind = `Pcc) oc.Mc.oc_counterexamples in
  let r = Mc.replay_on_switch ce in
  check Alcotest.bool "stuck-CPU forced release breaks PCC" true
    (r.Harness.Replay.violations > 0);
  (* and the switch really did fire its liveness valve *)
  check Alcotest.bool "barrier deadline fired" true (oc.Mc.oc_forced > 0)

let model_mutant_eager_gc_killed () =
  let oc = mutant_outcome Mc.Eager_version_gc in
  check Alcotest.bool "recycle property trips" true (oc.Mc.oc_recycled > 0);
  check Alcotest.bool "a recycle counterexample is produced" true
    (List.exists (fun ce -> ce.Mc.ce_kind = `Recycle) oc.Mc.oc_counterexamples)

let model_run_verify_kills_all () =
  let report = Mc.run_verify () in
  check Alcotest.int "no error diags" 0 (Diag.errors report.Mc.rp_diags);
  List.iter
    (fun (mu, _, killed) ->
      check Alcotest.bool (Mc.mutation_name mu ^ " killed") true (killed <> None);
      match killed with
      | Some (_, Some replay) ->
        check Alcotest.bool
          (Mc.mutation_name mu ^ " replay breaks PCC")
          true
          (replay.Harness.Replay.violations > 0)
      | Some (ce, None) ->
        check Alcotest.bool
          (Mc.mutation_name mu ^ " killed by the recycle property")
          true
          (mu = Mc.Eager_version_gc && ce.Mc.ce_kind = `Recycle)
      | None -> ())
    report.Mc.rp_mutants;
  check Alcotest.int "every mutation hunted" (List.length Mc.mutations)
    (List.length report.Mc.rp_mutants)

(* ---------- model: counterexamples as serve-mode scripts ---------- *)

let model_ce_script_replays () =
  let oc = mutant_outcome Mc.Transit_insert_disabled in
  let ce = List.find (fun ce -> ce.Mc.ce_kind = `Pcc) oc.Mc.oc_counterexamples in
  let script = Mc.ce_script ce in
  (* every line is a protocol line or a comment *)
  String.split_on_char '\n' script
  |> List.iter (fun line ->
         match Control.Protocol.parse line with
         | Ok _ -> ()
         | Error e -> Alcotest.failf "script line %S: %s" line e);
  (* driving a serve-mode session with the script as the control half
     and the counterexample trace as the data half reproduces the PCC
     break end to end *)
  let session =
    Control.Session.create ~cfg:ce.Mc.ce_cfg ~shards:1 ~trace:(Mc.ce_trace ce) ()
  in
  String.split_on_char '\n' script
  |> List.iter (fun line ->
         match Control.Session.exec_line session line with
         | None | Some { Control.Protocol.body = Ok _; _ } -> ()
         | Some { Control.Protocol.body = Error e; _ } ->
           Alcotest.failf "session rejected %S: %s" line e);
  let counts = Control.Session.counts session in
  check Alcotest.bool "all packets judged" true
    (counts.Harness.Replay.c_packets > 0);
  check Alcotest.bool "serve replay shows the violation" true
    (counts.Harness.Replay.c_violations > 0)

let model_ce_trace_and_controls_consistent () =
  let oc = mutant_outcome Mc.Transit_insert_disabled in
  let ce = List.find (fun ce -> ce.Mc.ce_kind = `Pcc) oc.Mc.oc_counterexamples in
  let trace = Mc.ce_trace ce in
  let pkts =
    List.length
      (List.filter (fun (_, e) -> match e with Mc.Pkt _ -> true | Mc.Upd _ -> false) ce.Mc.ce_events)
  in
  check Alcotest.int "one trace packet per Pkt event" pkts (Array.length trace.Harness.Packed_trace.times);
  check Alcotest.int "one control per Upd event"
    (List.length ce.Mc.ce_events - pkts)
    (List.length (Mc.ce_controls ce));
  check Alcotest.int "replay reproduces the switch run's violations" ce.Mc.ce_violations
    (Mc.replay_on_switch ce).Harness.Replay.violations

(* ---------- diag JSON escaping (satellite) ---------- *)

let diag_json_escaping () =
  let nasty =
    "quote \" backslash \\ newline \n tab \t return \r control \x01 done"
  in
  let d =
    Diag.v
      ~loc:{ Diag.file = "dir\\file \"x\".ml"; line = 2; col = 7 }
      ~hint:nasty ~rule:"model.pcc" ~severity:Diag.Error
      ("message with " ^ nasty)
  in
  let j = Diag.list_to_json [ d ] in
  let s = Telemetry.Json.to_string j in
  (* the rendered JSON must parse back to the same tree... *)
  (match Telemetry.Json.parse s with
   | Error e -> Alcotest.failf "diag JSON does not re-parse: %s" e
   | Ok j' -> check Alcotest.bool "escaping round-trips" true (j = j'));
  (* ...and the nasty strings must come back byte-identical *)
  (match Telemetry.Json.parse s with
   | Ok j' -> (
     match Telemetry.Json.member "diagnostics" j' with
     | Some (Telemetry.Json.List [ dj ]) ->
       let str k =
         match Telemetry.Json.member k dj with
         | Some (Telemetry.Json.String s) -> s
         | _ -> Alcotest.failf "missing %s" k
       in
       check Alcotest.string "hint survives" nasty (str "hint");
       check Alcotest.string "message survives" ("message with " ^ nasty) (str "message");
       check Alcotest.string "file survives" "dir\\file \"x\".ml" (str "file")
     | _ -> Alcotest.fail "diagnostics list missing")
   | Error _ -> ());
  (* pretty rendering escapes identically *)
  match Telemetry.Json.parse (Telemetry.Json.to_string_pretty j) with
  | Ok j' -> check Alcotest.bool "pretty round-trips" true (j = j')
  | Error e -> Alcotest.failf "pretty diag JSON does not re-parse: %s" e

let suites =
  [
    ( "verify.races",
      [
        tc "seeded positives flagged" `Quick races_positive_fixtures;
        tc "inter-procedural chain" `Quick races_interprocedural;
        tc "negatives stay clean" `Quick races_negative_fixtures;
        tc "synchronized state is info" `Quick races_synchronized;
        tc "missing root warns" `Quick races_no_root_warning;
        tc "shipped tree clean" `Quick races_shipped_tree_clean;
      ] );
    ( "verify.model",
      [
        tc "shipped semantics exhaust clean" `Quick model_shipped_exhaust;
        tc "scope meets the acceptance floor" `Quick model_scope_is_big_enough;
        tc "forced collisions are real" `Quick model_forced_collisions_real;
        tc "deterministic" `Quick model_determinism;
        tc "mutant: transit insert disabled" `Quick model_mutant_transit_killed;
        tc "mutant: barrier force-release" `Quick model_mutant_barrier_killed;
        tc "mutant: eager version gc" `Quick model_mutant_eager_gc_killed;
        tc "run_verify kills every mutant" `Quick model_run_verify_kills_all;
      ] );
    ( "verify.counterexamples",
      [
        tc "script replays through serve session" `Quick model_ce_script_replays;
        tc "trace/controls consistent with events" `Quick model_ce_trace_and_controls_consistent;
      ] );
    ( "verify.diag", [ tc "JSON escaping round-trip" `Quick diag_json_escaping ] );
  ]

(* Tests for silkroad-lint: the stage allocator's budget enforcement
   (one over-budget fixture per resource class), the config-level
   feasibility checks Switch.create consults, the determinism source
   lint (seeded fixtures + the shipped tree), and the network-wide
   assignment checks. *)

let check = Alcotest.check
let tc = Alcotest.test_case

module P = Asic.Pipeline
module R = Asic.Resources

(* a 2-stage chip small enough to overflow one class at a time *)
let tiny ?(n_stages = 2) ?(phv = 64) ?(baseline = R.make ()) () =
  { P.chip_name = "tiny"; n_stages;
    stage_budget =
      R.make ~match_crossbar_bits:64 ~sram_bits:1024 ~tcam_bits:64 ~vliw_actions:2 ~hash_bits:16
        ~stateful_alus:1 ();
    chip_phv_bits = phv; baseline }

(* the rule of the first finding; a feasible report has none *)
let rule_of (ds : Analysis.Diag.t list) =
  match ds with [] -> "feasible" | d :: _ -> d.Analysis.Diag.rule

let expect_rule name items rule =
  let r, ds = Analysis.Feasibility.check_items (tiny ()) items in
  check Alcotest.bool (name ^ " infeasible") true (r.P.failure <> None);
  check Alcotest.string (name ^ " rule") rule (rule_of ds);
  check Alcotest.int (name ^ " is an error") 1 (Analysis.Diag.errors ds)

let overbudget_per_class () =
  expect_rule "crossbar" [ P.item ~name:"wide-key" (R.make ~match_crossbar_bits:65 ()) ]
    "pipe.crossbar";
  expect_rule "sram" [ P.item ~name:"big-table" (R.make ~sram_bits:2048 ()) ] "pipe.sram";
  expect_rule "tcam" [ P.item ~name:"acl" (R.make ~tcam_bits:65 ()) ] "pipe.tcam";
  expect_rule "vliw" [ P.item ~name:"many-actions" (R.make ~vliw_actions:3 ()) ] "pipe.vliw";
  expect_rule "hash" [ P.item ~name:"hasher" (R.make ~hash_bits:17 ()) ] "pipe.hash";
  expect_rule "salu" [ P.item ~name:"registers" (R.make ~stateful_alus:2 ()) ] "pipe.salu";
  expect_rule "phv" [ P.item ~name:"metadata" (R.make ~phv_bits:65 ()) ] "pipe.phv";
  (* dependency chain deeper than the 2-stage chip *)
  expect_rule "stages"
    [ P.item ~name:"a" (R.make ~sram_bits:1 ());
      P.item ~after:[ "a" ] ~name:"b" (R.make ~sram_bits:1 ());
      P.item ~after:[ "b" ] ~name:"c" (R.make ~sram_bits:1 ()) ]
    "pipe.stages"

let divisible_spreads_and_exhausts () =
  (* 1.5 stages worth of SRAM spreads fine when divisible... *)
  let spread = [ P.item ~divisible:true ~name:"cuckoo" (R.make ~sram_bits:1536 ()) ] in
  let r, _ = Analysis.Feasibility.check_items (tiny ()) spread in
  check Alcotest.bool "1.5-stage table placed" true (r.P.failure = None);
  (match r.P.placements with
   | [ p ] ->
     check Alcotest.int "starts at stage 0" 0 p.P.first_stage;
     check Alcotest.int "ends at stage 1" 1 p.P.last_stage
   | _ -> Alcotest.fail "expected one placement");
  (* ...but the whole chip's SRAM is still a ceiling *)
  let too_big = [ P.item ~divisible:true ~name:"cuckoo" (R.make ~sram_bits:4096 ()) ] in
  let r, ds = Analysis.Feasibility.check_items (tiny ()) too_big in
  check Alcotest.string "whole-chip sram rule" "pipe.sram" (rule_of ds);
  (match r.P.failure with
   | Some f ->
     check Alcotest.bool "reported as a cross-stage total" true f.P.spread;
     check Alcotest.int "free = 2 stages" 2048 f.P.available
   | None -> Alcotest.fail "expected failure");
  check Alcotest.int "one error" 1 (Analysis.Diag.errors ds)

let dependencies_order_stages () =
  let items =
    [ P.item ~name:"first" (R.make ~sram_bits:1 ());
      P.item ~after:[ "first" ] ~name:"second" (R.make ~sram_bits:1 ()) ]
  in
  let r, _ = Analysis.Feasibility.check_items (tiny ()) items in
  match r.P.placements with
  | [ a; b ] ->
    check Alcotest.bool "strictly later stage" true (b.P.first_stage > a.P.last_stage)
  | _ -> Alcotest.fail "expected two placements"

(* ---------- the SilkRoad program on the §6 chip ---------- *)

let items_sum_to_table2 () =
  let connections = 1_000_000 and vips = 1024 in
  let items = Silkroad.Program.pipeline_items ~connections ~vips in
  (* additional_resources is the items' sum, and the allocator reports
     exactly that total, so Table 2 numbers are untouched by staging *)
  let r = P.allocate (Silkroad.Program.chip ()) items in
  check Alcotest.bool "allocator total unchanged" true
    (r.P.total_additional = Silkroad.Program.additional_resources ~connections ~vips);
  check Alcotest.bool "1M connections feasible" true (r.P.failure = None)

let default_and_10m_feasible () =
  let r = Silkroad.Program.feasibility Silkroad.Config.default in
  check Alcotest.bool "default feasible" true (r.P.failure = None);
  let r10 =
    Silkroad.Program.feasibility (Silkroad.Config.sized_for ~connections:10_000_000)
  in
  (* §5.2: "up to 10M connections can fit in the on-chip SRAM" *)
  check Alcotest.bool "10M feasible" true (r10.P.failure = None);
  (* the big table really is spread across stages *)
  match
    List.find_opt
      (fun p -> p.P.placed.P.item_name = "ConnTable")
      r10.P.placements
  with
  | Some p -> check Alcotest.bool "ConnTable spans stages" true (p.P.last_stage > p.P.first_stage)
  | None -> Alcotest.fail "ConnTable not placed"

let oversized_config_rejected () =
  let cfg = Silkroad.Config.sized_for ~connections:40_000_000 in
  let _, ds = Analysis.Feasibility.check_config cfg in
  check Alcotest.string "40M fails on SRAM" "pipe.sram" (rule_of ds);
  check Alcotest.int "one error" 1 (Analysis.Diag.errors ds);
  let d = List.hd ds in
  (match d.Analysis.Diag.hint with
   | Some h ->
     check Alcotest.bool "hint prices the digest knob" true
       (let re = Str.regexp_string "digest width" in
        try ignore (Str.search_forward re h 0); true with Not_found -> false)
   | None -> Alcotest.fail "expected a fix hint")

let salu_config_rejected () =
  let cfg = { Silkroad.Config.default with Silkroad.Config.transit_hashes = 8 } in
  let _, ds = Analysis.Feasibility.check_config cfg in
  check Alcotest.string "8 Bloom banks fail on stateful ALUs" "pipe.salu" (rule_of ds)

let switch_create_check () =
  let bad = { Silkroad.Config.default with Silkroad.Config.transit_hashes = 8 } in
  (match Silkroad.Switch.create ~check:`Fail bad with
   | exception Invalid_argument msg ->
     check Alcotest.bool "names the pipeline" true
       (let re = Str.regexp_string "infeasible pipeline" in
        try ignore (Str.search_forward re msg 0); true with Not_found -> false)
   | _ -> Alcotest.fail "`Fail must raise on an infeasible configuration");
  (* `Warn (default) and `Off still build the software model *)
  ignore (Silkroad.Switch.create bad);
  ignore (Silkroad.Switch.create ~check:`Off bad);
  ignore (Silkroad.Switch.create ~check:`Fail Silkroad.Config.default)

(* ---------- determinism source lint ---------- *)

let rules_of src =
  List.map (fun (d : Analysis.Diag.t) -> d.Analysis.Diag.rule) (Analysis.Source_lint.lint_string src)

let source_fixtures_caught () =
  check Alcotest.(list string) "wall clock" [ "det.wall-clock" ]
    (rules_of "let t = Sys.time ()");
  check Alcotest.(list string) "self init" [ "det.self-init" ]
    (rules_of "let () = Random.self_init ()");
  check Alcotest.(list string) "poly hash" [ "det.poly-hash" ]
    (rules_of "let h y = Hashtbl.hash y");
  check Alcotest.(list string) "poly compare as value" [ "det.poly-compare" ]
    (rules_of "let xs ys = List.sort compare ys");
  check Alcotest.(list string) "(=) as value" [ "det.poly-compare" ]
    (rules_of "let mem x xs = List.exists (( = ) x) xs");
  check Alcotest.(list string) "hashtbl order" [ "det.hashtbl-order" ]
    (rules_of "let dump h = Hashtbl.iter (fun k v -> Format.printf \"%s %d\" k v) h");
  check Alcotest.(list string) "parse error" [ "src.parse" ] (rules_of "let let = in")

let source_fixture_locations () =
  match Analysis.Source_lint.lint_string ~file:"x.ml" "let a = 1\nlet t = Sys.time ()" with
  | [ d ] -> (
    match d.Analysis.Diag.loc with
    | Some l ->
      check Alcotest.string "file" "x.ml" l.Analysis.Diag.file;
      check Alcotest.int "line" 2 l.Analysis.Diag.line
    | None -> Alcotest.fail "expected a location")
  | ds -> Alcotest.fail (Printf.sprintf "expected one finding, got %d" (List.length ds))

let source_negatives_clean () =
  (* applied compare is deterministic in-run: not flagged *)
  check Alcotest.(list string) "applied compare" [] (rules_of "let f a b = compare a b = 0");
  (* explicit comparators are fine *)
  check Alcotest.(list string) "String.compare" []
    (rules_of "let xs ys = List.sort String.compare ys");
  (* collect-sort-render is the blessed Hashtbl pattern *)
  check Alcotest.(list string) "sorted fold" []
    (rules_of
       "let dump h = List.iter print_endline (List.sort String.compare (Hashtbl.fold (fun k _ \
        acc -> k :: acc) h []))");
  (* the allowlist attribute suppresses file-wide *)
  check Alcotest.(list string) "allow attribute" []
    (rules_of "[@@@silkroad.allow \"det.wall-clock\"]\nlet t = Sys.time ()")

(* The old toplevel-mutable [det.domain-unsafe] rule moved to
   Analysis.Domain_safety (inter-procedural, over typed trees);
   its fixtures live in Test_verify now. *)

(* Walk up from cwd to the repository root (dune-project); the test
   binary runs in _build/default/test. *)
let repo_root () =
  let rec up d n =
    if n = 0 then None
    else if Sys.file_exists (Filename.concat d "dune-project") && Sys.file_exists (Filename.concat d "lib") then Some d
    else up (Filename.dirname d) (n - 1)
  in
  up (Sys.getcwd ()) 6

let shipped_tree_clean () =
  match repo_root () with
  | None -> () (* sandboxed run without the source tree: nothing to lint *)
  | Some root ->
    let ds = Analysis.Source_lint.lint_dirs (Analysis.Source_lint.default_dirs ~root) in
    let errs = List.filter (fun (d : Analysis.Diag.t) -> d.Analysis.Diag.severity = Analysis.Diag.Error) ds in
    Format.eprintf "%a@." Analysis.Diag.pp_list errs;
    check Alcotest.int "no determinism errors in lib/, bin/, test/, bench/, examples/" 0
      (List.length errs)

(* ---------- unused exported surface ---------- *)

let surface units =
  let r = Analysis.Surface.analyze_sources units in
  ( r,
    List.map
      (fun (d : Analysis.Diag.t) ->
        ( (match d.Analysis.Diag.severity with
           | Analysis.Diag.Error -> "error"
           | Analysis.Diag.Warning -> "warning"
           | Analysis.Diag.Info -> "info"),
          d.Analysis.Diag.message ))
      r.Analysis.Surface.diags )

let meter_intf =
  ( "lib",
    "Meter",
    `Intf
      "val mark : int -> int\n\
       val dead : int -> int\n\
       module Stepper : sig val first : int end" )

let surface_fixtures_caught () =
  let findings = Alcotest.(list (pair string string)) in
  let r, ds =
    surface
      [ meter_intf; ("bin", "Main", `Impl "let () = print_int (Meter.mark 1)") ]
  in
  check findings "dead exports are errors, nested ones included"
    [ ("error", "Meter.dead is exported, but no other unit uses it");
      ("error", "Meter.Stepper.first is exported, but no other unit uses it") ]
    ds;
  check Alcotest.(list int) "counts" [ 3; 2; 0 ]
    [ r.Analysis.Surface.exported; r.Analysis.Surface.unused; r.Analysis.Surface.test_only ];
  let _, ds =
    surface
      [ meter_intf;
        ("bin", "Main", `Impl "let () = print_int (Meter.mark Meter.Stepper.first)");
        ("test", "Test_meter", `Impl "let () = assert (Meter.dead 1 = 1)") ]
  in
  check findings "a test-only export is a warning"
    [ ("warning", "Meter.dead is exported, but only test/ uses it (test/test_meter.ml)") ]
    ds;
  (* a lib/ unit without an .mli exports its whole top level *)
  let _, ds =
    surface
      [ ( "lib",
          "Fig",
          `Impl "let helper x = x + 1\nlet run () = helper 1\nmodule Sub = struct let inner = 2 end" );
        ("bin", "Main", `Impl "let () = print_int (Fig.run ())") ]
  in
  check findings "a unit without an interface"
    [ ("error", "Fig.helper is exported, but no other unit uses it");
      ("error", "Fig.Sub.inner is exported, but no other unit uses it") ]
    ds;
  (* an allow needs a reason, and one on a value the program uses is stale *)
  let _, ds =
    surface
      [ ( "lib",
          "Probe",
          `Intf
            "val bare : int [@@silkroad.allow \"surface.unused-export\"]\n\
             val used : int [@@silkroad.allow \"surface.unused-export: the test is its subject\"]" );
        ("bin", "Main", `Impl "let () = print_int Probe.used");
        ("test", "Test_probe", `Impl "let () = assert (Probe.bare = 0)") ]
  in
  check findings "allow without a reason, stale allow"
    [ ("warning", "Probe.bare is exported, but only test/ uses it (test/test_probe.ml)");
      ("warning", "Probe.used carries a surface.unused-export allow, but the program uses it") ]
    ds

let surface_negatives_clean () =
  let clean name units =
    let _, ds = surface units in
    check Alcotest.(list (pair string string)) name [] ds
  in
  let key_intf =
    ("lib", "Key", `Intf "type t = int\nval equal : t -> t -> bool\nval hash : t -> int")
  in
  clean "use in let () and a toplevel expression"
    [ ("lib", "Meter", `Intf "val mark : int -> int\nval dead : int -> int");
      ("bin", "Main", `Impl "let () = print_int (Meter.mark 1)\n;; ignore (Meter.dead 2)") ];
  clean "use through a local module alias"
    [ ("lib", "Meter", `Intf "val mark : int -> int");
      ("bin", "Main", `Impl "module M = Meter\nlet f = M.mark") ];
  clean "use through a local module alias in an expression"
    [ ("lib", "Meter", `Intf "val mark : int -> int");
      ("bin", "Main", `Impl "let f x = let module M = Meter in M.mark x") ];
  clean "a helper its interface leaves out"
    [ ("lib", "Meter", `Intf "val mark : int -> int");
      ("lib", "Meter", `Impl "let helper x = x\nlet mark x = helper x");
      ("bin", "Main", `Impl "let () = print_int (Meter.mark 1)") ];
  clean "use through open"
    [ ("lib", "Meter", `Intf "val mark : int -> int");
      ("bin", "Main", `Impl "open Meter\nlet f = mark") ];
  clean "module given whole to a functor" [ key_intf; ("bin", "Main", `Impl "module T = Hashtbl.Make (Key)") ];
  clean "module included" [ key_intf; ("bin", "Main", `Impl "include Key") ];
  clean "module packed whole"
    [ key_intf;
      ( "bin",
        "Main",
        `Impl "module type H = sig val hash : int -> int end\nlet m = (module Key : H)" ) ];
  clean "an allowed test-only value"
    [ ( "lib",
        "Probe",
        `Intf "val v : int [@@silkroad.allow \"surface.unused-export: the test is its subject\"]" );
      ("test", "Test_probe", `Impl "let () = assert (Probe.v = 0)") ];
  let r, _ =
    surface
      [ ("lib", "Probe", `Intf "val v : int [@@silkroad.allow \"surface.unused-export: subject\"]");
        ("test", "Test_probe", `Impl "let () = assert (Probe.v = 0)") ]
  in
  check Alcotest.int "allowed counted" 1 r.Analysis.Surface.allowed

(* ---------- unused optional parameters ---------- *)

let gate_intf = ("lib", "Gate", `Intf "val open_ : ?timeout:float -> port:int -> unit -> int")
let gate_bin = ("bin", "Main", `Impl "let () = print_int (Gate.open_ ~port:1 ())")

let option_counts (r : Analysis.Surface.result) =
  [ r.Analysis.Surface.options; r.Analysis.Surface.opt_unused; r.Analysis.Surface.opt_test_only;
    r.Analysis.Surface.opt_allowed ]

let options_caught () =
  let findings = Alcotest.(list (pair string string)) in
  let never = ("error", "?timeout of Gate.open_ is never passed by another unit") in
  (* the typer fills the omitted option of a total application with a
     ghost [None], which passes nothing *)
  let r, ds = surface [ gate_intf; gate_bin ] in
  check findings "only ever omitted" [ never ] ds;
  check Alcotest.(list int) "counts" [ 1; 1; 0; 0 ] (option_counts r);
  (* the defining unit's own calls are not another unit's *)
  let _, ds =
    surface
      [ ( "lib",
          "Gate",
          `Impl "let open_ ?(timeout = 1.) ~port () = int_of_float timeout + port
                 let default () = open_ ~timeout:2. ~port:0 ()" );
        ("bin", "Main", `Impl "let () = print_int (Gate.open_ ~port:1 () + Gate.default ())") ]
  in
  check findings "passed by nobody else" [ never ] ds;
  let test_gate = ("test", "Test_gate", `Impl "let () = assert (Gate.open_ ~timeout:1. ~port:1 () = 2)") in
  let r, ds = surface [ gate_intf; gate_bin; test_gate ] in
  check findings "passed only by test/"
    [ ("warning", "?timeout of Gate.open_ is passed only by test/ (test/test_gate.ml)") ]
    ds;
  check Alcotest.(list int) "counts" [ 1; 0; 1; 0 ] (option_counts r);
  (* an allow needs a reason, and one the program makes moot is stale *)
  let _, ds =
    surface
      [ ( "lib",
          "Gate",
          `Intf
            "val open_ : ?timeout:float -> port:int -> unit -> int \
             [@@silkroad.allow \"surface.unused-option\"]\n\
             val close : ?force:bool -> unit -> unit \
             [@@silkroad.allow \"surface.unused-option: the test is its subject\"]" );
        ("bin", "Main", `Impl "let () = print_int (Gate.open_ ~port:1 ()); Gate.close ~force:true ()");
        test_gate ]
  in
  check findings "allow without a reason, stale allow"
    [ ("warning", "?timeout of Gate.open_ is passed only by test/ (test/test_gate.ml)");
      ("warning", "Gate.close carries a surface.unused-option allow, but the program passes all its options") ]
    ds;
  let r, ds =
    surface
      [ ( "lib",
          "Gate",
          `Intf
            "val open_ : ?timeout:float -> port:int -> unit -> int \
             [@@silkroad.allow \"surface.unused-option: the test is its subject\"]" );
        gate_bin;
        test_gate ]
  in
  check findings "an allowed test-only option" [] ds;
  check Alcotest.(list int) "allowed counted" [ 1; 0; 0; 1 ] (option_counts r)

let options_negatives_clean () =
  let clean name units =
    let _, ds = surface units in
    check Alcotest.(list (pair string string)) name [] ds
  in
  let passing src = [ gate_intf; ("bin", "Main", `Impl src) ] in
  clean "passed with ~l" (passing "let () = print_int (Gate.open_ ~timeout:1. ~port:1 ())");
  clean "passed with ?l" (passing "let () = print_int (Gate.open_ ?timeout:(Some 1.) ~port:1 ())");
  clean "an explicit ?l:None" (passing "let () = print_int (Gate.open_ ?timeout:None ~port:1 ())");
  (* a lib wrapper forwards the option it gets from bin *)
  clean "forwarded by a lib wrapper"
    [ gate_intf;
      ("lib", "Wrap", `Impl "let make ?timeout () = Gate.open_ ?timeout ~port:1 ()");
      ("bin", "Main", `Impl "let () = print_int (Wrap.make ~timeout:2. ())") ];
  (* the option is still open in the value a partial application
     returns; where that value goes is beyond the rule, so it counts *)
  clean "a partial application used as a value"
    (passing "let f = Gate.open_ ~port:1
let () = List.iter (fun g -> print_int (g ())) [ f ]");
  clean "the value itself" (passing "let f = Gate.open_
let () = print_int (f ~port:1 ())");
  (* an export the program does not use is surface.unused-export's *)
  let r, _ = surface [ gate_intf ] in
  check Alcotest.(list int) "options of unused exports are not judged" [ 0; 0; 0; 0 ] (option_counts r)

(* A tree whose executables were built without typed trees (dune build
   @all) must fail, not pass with everything they use reported unused. *)
let surface_missing_trees () =
  let root = Filename.temp_dir "surface" "" in
  let write rel text =
    let path = Filename.concat root rel in
    if not (Sys.file_exists (Filename.dirname path)) then Sys.mkdir (Filename.dirname path) 0o755;
    Out_channel.with_open_text path (fun oc -> output_string oc text)
  in
  write "lib/meter.mli" "val mark : int -> int\n";
  write "bin/main.ml" "let () = print_int (Meter.mark 1)\n";
  let r = Analysis.Surface.analyze_root ~root in
  List.iter (fun f -> Sys.remove (Filename.concat root f)) [ "lib/meter.mli"; "bin/main.ml" ];
  List.iter (fun d -> Sys.rmdir (Filename.concat root d)) [ "lib"; "bin"; "" ];
  check Alcotest.(list string) "no typed trees is an error" [ "surface.no-cmt" ]
    (List.map (fun (d : Analysis.Diag.t) -> d.Analysis.Diag.rule) r.Analysis.Surface.diags);
  check Alcotest.int "and counts as one" 1 (Analysis.Diag.errors r.Analysis.Surface.diags)

(* ---------- network-wide mode ---------- *)

let network_default_places_all () =
  let _, ds =
    Analysis.Feasibility.check_network ~layers:Analysis.Feasibility.default_layers
      ~vips:(Analysis.Feasibility.default_demands ~vips:256 ())
      ()
  in
  check Alcotest.int "no errors" 0 (Analysis.Diag.errors ds);
  check Alcotest.int "no warnings" 0
    (List.length
       (List.filter (fun (d : Analysis.Diag.t) -> d.Analysis.Diag.severity = Analysis.Diag.Warning) ds))

let mb_bits m = int_of_float (m *. 8. *. 1024. *. 1024.)

let network_overflow_reported () =
  let layers =
    [ { Silkroad.Assignment.layer_name = "ToR"; switches = 1; sram_budget_bits = mb_bits 1.;
        capacity_gbps = 100. } ]
  in
  let vip i = Netcore.Endpoint.v4 20 0 0 (i + 1) 80 in
  let huge =
    { Silkroad.Assignment.vip = vip 0; conn_bits = mb_bits 10.; traffic_gbps = 1. }
  in
  let _, ds = Analysis.Feasibility.check_network ~layers ~vips:[ huge ] () in
  check Alcotest.int "unplaced VIP is an error" 1 (Analysis.Diag.errors ds);
  check Alcotest.string "rule" "net.unplaced" (List.hd ds).Analysis.Diag.rule;
  (* a VIP that fits but leaves <10% headroom draws the warning *)
  let tight =
    { Silkroad.Assignment.vip = vip 1; conn_bits = mb_bits 0.95; traffic_gbps = 1. }
  in
  let _, ds = Analysis.Feasibility.check_network ~layers ~vips:[ tight ] () in
  check Alcotest.int "no errors" 0 (Analysis.Diag.errors ds);
  check Alcotest.string "headroom warning" "net.sram-headroom" (List.hd ds).Analysis.Diag.rule

(* ---------- diagnostics plumbing ---------- *)

let diag_render_and_json () =
  let d =
    Analysis.Diag.v
      ~loc:{ Analysis.Diag.file = "a.ml"; line = 3; col = 4 }
      ~hint:"do the other thing" ~rule:"det.wall-clock" ~severity:Analysis.Diag.Error "bad"
  in
  let text = Format.asprintf "@[<v>%a@]" Analysis.Diag.pp_list [ d ] in
  check Alcotest.bool "text form" true
    (let re = Str.regexp_string "a.ml:3:4: error[det.wall-clock]: bad" in
     try ignore (Str.search_forward re text 0); true with Not_found -> false);
  let j = Analysis.Diag.list_to_json [ d ] in
  check Alcotest.int "json errors field" 1
    (match Telemetry.Json.member "errors" j with Some (Telemetry.Json.Int n) -> n | _ -> -1);
  (* deterministic order: by location, then rule *)
  let d2 =
    Analysis.Diag.v
      ~loc:{ Analysis.Diag.file = "a.ml"; line = 1; col = 0 }
      ~rule:"z" ~severity:Analysis.Diag.Warning "later line sorts last"
  in
  check Alcotest.bool "sorted by position" true (Analysis.Diag.compare d2 d < 0)

let suites =
  [
    ( "analysis.pipeline",
      [
        tc "over budget per class" `Quick overbudget_per_class;
        tc "divisible spread + exhaustion" `Quick divisible_spreads_and_exhausts;
        tc "dependencies order stages" `Quick dependencies_order_stages;
        tc "items sum to Table 2" `Quick items_sum_to_table2;
        tc "default and 10M feasible" `Quick default_and_10m_feasible;
        tc "40M rejected with hint" `Quick oversized_config_rejected;
        tc "8 Bloom banks rejected" `Quick salu_config_rejected;
        tc "Switch.create ?check" `Quick switch_create_check;
      ] );
    ( "analysis.source",
      [
        tc "seeded fixtures caught" `Quick source_fixtures_caught;
        tc "locations" `Quick source_fixture_locations;
        tc "negatives stay clean" `Quick source_negatives_clean;
        tc "shipped tree lints clean" `Quick shipped_tree_clean;
      ] );
    ( "analysis.surface",
      [
        tc "seeded fixtures caught" `Quick surface_fixtures_caught;
        tc "negatives stay clean" `Quick surface_negatives_clean;
        tc "missing typed trees" `Quick surface_missing_trees;
        tc "unused options caught" `Quick options_caught;
        tc "passed options stay clean" `Quick options_negatives_clean;
      ] );
    ( "analysis.network",
      [
        tc "defaults place all" `Quick network_default_places_all;
        tc "overflow + headroom" `Quick network_overflow_reported;
      ] );
    ( "analysis.diag", [ tc "render + json + order" `Quick diag_render_and_json ] );
  ]

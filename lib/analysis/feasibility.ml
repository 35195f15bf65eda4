module P = Asic.Pipeline
module R = Asic.Resources

let rule_of_failure (f : P.failure) =
  match f.P.failed_class with
  | None -> "pipe.stages"
  | Some c -> (
    match c with
    | P.Crossbar -> "pipe.crossbar"
    | P.Sram -> "pipe.sram"
    | P.Tcam -> "pipe.tcam"
    | P.Vliw -> "pipe.vliw"
    | P.Hash -> "pipe.hash"
    | P.Salu -> "pipe.salu"
    | P.Phv -> "pipe.phv")

let mb = Silkroad.Memory_model.mb

(* total SRAM a configuration's items ask for — used to price out the
   digest-width knob numerically instead of guessing *)
let sram_of_config cfg =
  (R.sum (List.map (fun (i : P.item) -> i.P.needs) (Silkroad.Program.items_of_config cfg)))
    .R.sram_bits

(* an actionable, numeric remediation for the binding resource class *)
let hint ?cfg (f : P.failure) =
  let item = f.P.failed_item in
  match (f.P.failed_class, cfg) with
  | Some P.Sram, Some cfg when item = "ConnTable" ->
    let d = cfg.Silkroad.Config.digest_bits in
    (* entries pack into fixed SRAM words, so savings appear only at
       packing thresholds: scan for the widest digest that crosses one *)
    let rec widest_saving d' =
      if d' < 8 then None
      else
        let saved = sram_of_config cfg - sram_of_config { cfg with Silkroad.Config.digest_bits = d' } in
        if saved > 0 then Some (d', saved) else widest_saving (d' - 1)
    in
    let found = widest_saving (d - 1) in
    let d', saved = match found with Some (d', s) -> (d', s) | None -> (d, 0) in
    let deficit = f.P.needed - f.P.available in
    if saved > 0 then
      Some
        (Printf.sprintf
           "digest width %d->%d saves %.1f MB (deficit %.1f MB); conn_table_rows scales SRAM linearly"
           d d' (mb saved) (mb deficit))
    else
      Some
        (Printf.sprintf "shrink conn_table_rows/ways: deficit is %.1f MB" (mb deficit))
  | Some P.Sram, _ ->
    Some (Printf.sprintf "deficit is %.1f MB of stage SRAM" (mb (f.P.needed - f.P.available)))
  | Some P.Salu, Some cfg when item = "TransitTable" ->
    Some
      (Printf.sprintf
         "transit_hashes=%d needs one stateful ALU per Bloom bank in a single stage; at most %d fit"
         cfg.Silkroad.Config.transit_hashes f.P.available)
  | Some P.Hash, Some cfg when item = "ConnTable" ->
    let k = cfg.Silkroad.Config.conn_table_stages in
    let fit = if f.P.needed > 0 then f.P.available * k / f.P.needed else k in
    Some
      (Printf.sprintf
         "%d cuckoo stages hash %d bits of index; %d stage(s) would fit the %d free bits (or narrow the digest)"
         k f.P.needed (Int.max 1 fit) f.P.available)
  | Some P.Crossbar, _ ->
    Some "narrow the match key (digest the 5-tuple earlier) or split the table"
  | Some P.Tcam, _ -> Some "move ternary matches to exact-match SRAM tables"
  | Some P.Vliw, _ -> Some "fold actions together; VLIW slots are per stage"
  | Some P.Hash, _ -> Some "fewer hash ways or a narrower index per stage"
  | Some P.Salu, _ -> Some "register banks are one stateful ALU each; reduce banks per stage"
  | Some P.Phv, Some cfg ->
    Some
      (Printf.sprintf
         "PHV is chip-wide: digest_bits=%d and version_bits=%d metadata are the knobs"
         cfg.Silkroad.Config.digest_bits cfg.Silkroad.Config.version_bits)
  | Some P.Phv, None -> Some "reduce per-packet metadata: PHV is a chip-wide budget"
  | None, _ -> Some "dependency chain is deeper than the pipeline; merge tables or cut a dependency"

let peak_sram_pct (r : P.report) =
  let b = float_of_int r.P.chip.P.stage_budget.R.sram_bits in
  Array.fold_left
    (fun acc (u : R.t) -> Float.max acc (100. *. float_of_int u.R.sram_bits /. b))
    0. r.P.per_stage

let check_items ?cfg chip items =
  let r = P.allocate chip items in
  let diags =
    match r.P.failure with
    | Some f ->
      [ Diag.v ~rule:(rule_of_failure f) ~severity:Diag.Error ?hint:(hint ?cfg f)
          (Format.asprintf "%a" P.pp_failure f) ]
    | None ->
      [ Diag.v ~rule:"pipe.ok" ~severity:Diag.Info
          (Printf.sprintf
             "feasible on %s: %d items placed, peak stage SRAM %.0f%%, chip PHV %d/%d bits"
             chip.P.chip_name (List.length r.P.placements) (peak_sram_pct r) r.P.phv_used
             chip.P.chip_phv_bits) ]
  in
  (r, diags)

let check_config ?vips cfg =
  check_items ~cfg (Silkroad.Program.chip ()) (Silkroad.Program.items_of_config ?vips cfg)

(* ----- network-wide mode (§5.3) ----- *)

let mb_bits m = int_of_float (m *. 8. *. 1024. *. 1024.)

let default_layers =
  [ { Silkroad.Assignment.layer_name = "ToR"; switches = 48; sram_budget_bits = mb_bits 25.;
      capacity_gbps = 800. };
    { Silkroad.Assignment.layer_name = "Agg"; switches = 16; sram_budget_bits = mb_bits 50.;
      capacity_gbps = 3200. };
    { Silkroad.Assignment.layer_name = "Core"; switches = 4; sram_budget_bits = mb_bits 80.;
      capacity_gbps = 6400. } ]

let default_demands ?(cfg = Silkroad.Config.default) ~vips () =
  let conn_bits connections =
    Silkroad.Memory_model.conn_table_bits ~layout:Silkroad.Memory_model.Digest_version
      ~ipv6:false ~digest_bits:cfg.Silkroad.Config.digest_bits
      ~version_bits:cfg.Silkroad.Config.version_bits ~connections
  in
  List.init vips (fun i ->
      let connections, gbps =
        if i mod 16 = 0 then (2_000_000, 100.)
        else if i mod 4 = 0 then (400_000, 12.)
        else (50_000, 1.5)
      in
      { Silkroad.Assignment.vip = Netcore.Endpoint.v4 20 0 (i / 250) (1 + (i mod 250)) 80;
        conn_bits = conn_bits connections;
        traffic_gbps = gbps })

(* the per-switch SRAM utilization past which a placement has no
   headroom for the next DIP-pool growth *)
let sram_warn = 0.9

let check_network ~layers ~vips () =
  let p = Silkroad.Assignment.assign ~layers ~vips in
  let unplaced =
    List.map
      (fun v ->
        Diag.v ~rule:"net.unplaced" ~severity:Diag.Error
          ~hint:"add SilkRoad switches to a layer, raise its LB SRAM budget, or shrink the VIP's ConnTable share"
          (Printf.sprintf "VIP %s fits no layer's per-switch SRAM/traffic budget"
             (Netcore.Endpoint.to_string v)))
      p.Silkroad.Assignment.unplaced
  in
  let headroom =
    if p.Silkroad.Assignment.max_sram_utilization > sram_warn then
      [ Diag.v ~rule:"net.sram-headroom" ~severity:Diag.Warning
          ~hint:"rebalance VIPs toward layers with slack before the next DIP-pool growth"
          (Printf.sprintf "max per-switch SRAM utilization %.0f%% exceeds %.0f%% headroom threshold"
             (100. *. p.Silkroad.Assignment.max_sram_utilization) (100. *. sram_warn)) ]
    else []
  in
  let ok =
    if unplaced = [] && headroom = [] then
      [ Diag.v ~rule:"net.ok" ~severity:Diag.Info
          (Printf.sprintf "%d VIPs placed across %d layers, max per-switch SRAM utilization %.0f%%"
             (List.length p.Silkroad.Assignment.assignment) (List.length layers)
             (100. *. p.Silkroad.Assignment.max_sram_utilization)) ]
    else []
  in
  (p, unplaced @ headroom @ ok)

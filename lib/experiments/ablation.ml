(* Ablations over the design choices DESIGN.md calls out:
   - digest width vs memory vs false-positive rate (see Extras.digest_fp),
   - ConnTable geometry (stages x ways) vs achievable occupancy,
   - version-field width vs exhaustion under heavy updates,
   - consistent hashing (Maglev / resilient) vs plain ECMP disruption. *)

module Int_cuckoo = Asic.Cuckoo.Make (struct
  type t = int

  let equal = Int.equal
  let range ~seed x n = Netcore.Hashing.to_range (Netcore.Hashing.seeded ~seed (Int64.of_int x)) n
  let bits ~seed x k =
    Netcore.Hashing.truncate_bits (Netcore.Hashing.seeded ~seed (Int64.of_int x)) k
end)

let cuckoo_geometry ~quick ppf =
  Common.header ppf "Ablation: cuckoo geometry vs achievable occupancy";
  Common.row ppf [ "stages"; "ways"; "capacity"; "fill at first failure" ];
  Common.rule ppf;
  let rows = if quick then 1024 else 8192 in
  List.iter
    (fun (stages, ways) ->
      let t =
        Int_cuckoo.create ~digest_bits:16 ~key_of:Fun.id ~stages ~rows_per_stage:(rows / stages)
          ~ways ()
      in
      let cap = Int_cuckoo.capacity t in
      let filled = ref 0 in
      (try
         for i = 0 to cap - 1 do
           match Int_cuckoo.insert t i i with
           | Ok _ -> incr filled
           | Error `Full -> raise Exit
           | Error `Duplicate -> ()
         done
       with Exit -> ());
      Common.row ppf
        [ string_of_int stages; string_of_int ways; string_of_int cap;
          Common.pct (float_of_int !filled /. float_of_int cap) ])
    [ (2, 1); (2, 4); (4, 1); (4, 4); (8, 4) ];
  Format.fprintf ppf "  more stages/ways -> higher safe occupancy before insertion failure.@."

let version_bits ~quick ppf =
  Common.header ppf "Ablation: version width vs exhaustion (updates with pinned versions)";
  Common.row ppf [ "bits"; "capacity"; "updates applied"; "exhaustions" ];
  Common.rule ppf;
  let updates = if quick then 120 else 400 in
  List.iter
    (fun bits ->
      let t = Silkroad.Dip_pool_table.create ~version_bits:bits ~seed:5 in
      let v = Common.vip 0 in
      let pool = Lb.Dip_pool.of_list (List.init 16 Common.dip) in
      let vs, v0 = Result.get_ok (Silkroad.Dip_pool_table.add_vip t v pool) in
      let pin version =
        let i = Silkroad.Dip_pool_table.lookup vs version in
        if i.Silkroad.Dip_pool_table.refs = 0 then Silkroad.Dip_pool_table.retain i
      in
      pin v0;
      let current = ref v0 in
      let rng = Simnet.Prng.create ~seed:77 in
      let events =
        Simnet.Update_trace.generate ~rng ~updates_per_min:(float_of_int updates /. 10.)
          ~horizon:600. ~pool_size:16
      in
      let applied = ref 0 in
      List.iter
        (fun (e : Simnet.Update_trace.event) ->
          let d = Common.dip e.Simnet.Update_trace.dip in
          let u =
            match e.Simnet.Update_trace.kind with
            | Simnet.Update_trace.Remove -> Lb.Balancer.Dip_remove d
            | Simnet.Update_trace.Add -> Lb.Balancer.Dip_add d
          in
          match Silkroad.Dip_pool_table.publish t vs ~current:!current u with
          | Ok nv ->
            incr applied;
            pin nv;
            current := nv
          | Error _ -> ())
        events;
      Common.row ppf
        [ string_of_int bits; string_of_int (1 lsl bits); string_of_int !applied;
          string_of_int (Silkroad.Dip_pool_table.version_exhaustions t) ])
    [ 4; 6; 8 ];
  Format.fprintf ppf "  6 bits absorb production update rates once versions are reused.@."

let hashing_disruption ~quick ppf =
  Common.header ppf "Ablation: stateless disruption on one DIP removal (16 -> 15)";
  Common.row ppf [ "scheme"; "flows remapped" ];
  Common.rule ppf;
  let n = if quick then 20_000 else 100_000 in
  let dips = List.init 16 Common.dip in
  let removed = Common.dip 3 in
  let survivors = List.filter (fun d -> not (Netcore.Endpoint.equal d removed)) dips in
  let flows =
    List.init n (fun i ->
        Netcore.Five_tuple.hash ~seed:9
          (Netcore.Five_tuple.make
             ~src:(Netcore.Endpoint.v4 1 2 ((i / 60000) + 1) 4 (1 + (i mod 60000)))
             ~dst:(Common.vip 0) ~proto:Netcore.Protocol.Tcp))
  in
  let count name before after =
    let moved = List.length (List.filter (fun h -> before h <> after h) flows) in
    Common.row ppf [ name; Common.pct (float_of_int moved /. float_of_int n) ]
  in
  (* plain ECMP: mod 16 -> mod 15 *)
  let arr_before = Array.of_list dips and arr_after = Array.of_list survivors in
  count "ECMP (mod n)" (Asic.Ecmp.select arr_before) (Asic.Ecmp.select arr_after);
  (* resilient hashing *)
  let r = Asic.Ecmp.resilient ~slots_per_member:64 arr_before in
  let r' = Asic.Ecmp.resilient_remove ~equal:Netcore.Endpoint.equal r removed in
  count "Resilient" (Asic.Ecmp.resilient_select r) (Asic.Ecmp.resilient_select r');
  (* maglev *)
  let m = Baselines.Maglev_hash.create dips in
  let m' = Baselines.Maglev_hash.create survivors in
  count "Maglev" (Baselines.Maglev_hash.lookup m) (Baselines.Maglev_hash.lookup m');
  Format.fprintf ppf
    "  ideal minimum is 1/16 = 6.25%% (only the removed DIP's flows);@.";
  Format.fprintf ppf
    "  SilkRoad's ConnTable achieves 0%% for live connections regardless.@."

let network_wide ~quick:_ ppf =
  Common.header ppf "Network-wide VIP assignment (Figure 11 / §5.3 bin packing)";
  let mb_bits m = int_of_float (m *. 8. *. 1024. *. 1024.) in
  let layers =
    [ { Silkroad.Assignment.layer_name = "ToR"; switches = 48; sram_budget_bits = mb_bits 25.;
        capacity_gbps = 800. };
      { Silkroad.Assignment.layer_name = "Agg"; switches = 16; sram_budget_bits = mb_bits 50.;
        capacity_gbps = 3200. };
      { Silkroad.Assignment.layer_name = "Core"; switches = 4; sram_budget_bits = mb_bits 80.;
        capacity_gbps = 6400. } ]
  in
  let rng = Simnet.Prng.create ~seed:11 in
  let vips =
    List.init 200 (fun i ->
        let conns = Simnet.Dist.sample (Simnet.Dist.lognormal_of_quantiles ~median:2e5 ~p99:2e7) rng in
        let gbps = Simnet.Dist.sample (Simnet.Dist.lognormal_of_quantiles ~median:2. ~p99:220.) rng in
        { Silkroad.Assignment.vip = Common.vip i;
          conn_bits =
            Silkroad.Memory_model.conn_table_bits ~layout:Silkroad.Memory_model.Digest_version
              ~ipv6:false ~digest_bits:16 ~version_bits:6 ~connections:(int_of_float conns);
          traffic_gbps = gbps })
  in
  let p = Silkroad.Assignment.assign ~layers ~vips in
  Common.row ppf [ "layer"; "SRAM util"; "traffic util"; "#VIPs" ];
  Common.rule ppf;
  List.iter
    (fun (layer : Silkroad.Assignment.layer) ->
      let name = layer.Silkroad.Assignment.layer_name in
      let s = List.assoc name p.Silkroad.Assignment.sram_utilization in
      let tr = List.assoc name p.Silkroad.Assignment.traffic_utilization in
      let n = List.length (List.filter (fun (_, l) -> l = name) p.Silkroad.Assignment.assignment) in
      Common.row ppf [ name; Common.pct s; Common.pct tr; string_of_int n ])
    layers;
  Format.fprintf ppf "  max SRAM utilization %s; unplaced VIPs: %d@."
    (Common.pct p.Silkroad.Assignment.max_sram_utilization)
    (List.length p.Silkroad.Assignment.unplaced)

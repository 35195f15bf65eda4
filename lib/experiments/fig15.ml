(* Figure 15: benefit of version reuse. For a Backend VIP under a given
   number of DIP pool updates per ten-minute window, count the version
   numbers needed without reuse (every update burns one — the paper's
   "330 updates -> 330 versions, 9 bits") and with reuse (drive the
   updates through DIPPoolTable; every version is pinned for the whole
   window, the worst case for the allocator). *)

let versions_with_reuse ~rng ~updates ~pool_size =
  let t = Silkroad.Dip_pool_table.create ~version_bits:10 ~seed:99 in
  let vip = Common.vip 0 in
  let pool = Lb.Dip_pool.of_list (List.init pool_size Common.dip) in
  let vs, v0 =
    match Silkroad.Dip_pool_table.add_vip t vip pool with
    | Ok r -> r
    | Error `Exists -> assert false
  in
  (* pin every version that becomes current: connections from the whole
     window are still alive *)
  let pin version =
    let i = Silkroad.Dip_pool_table.lookup vs version in
    if i.Silkroad.Dip_pool_table.refs = 0 then Silkroad.Dip_pool_table.retain i
  in
  pin v0;
  let current = ref v0 in
  let events =
    Simnet.Update_trace.generate ~rng ~updates_per_min:(float_of_int updates /. 10.)
      ~horizon:600. ~pool_size
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
      | Ok v ->
        incr applied;
        pin v;
        current := v
      | Error _ -> ())
    events;
  (!applied, Silkroad.Dip_pool_table.live_versions vs)

let run ~quick:_ ppf =
  let rng = Simnet.Prng.create ~seed:15 in
  Common.header ppf "Figure 15: versions needed per 10-minute window (reuse on/off)";
  Common.row ppf [ "updates/10min"; "no reuse"; "with reuse"; "bits no-reuse"; "bits reuse" ];
  Common.rule ppf;
  let bits n = int_of_float (Float.ceil (log (float_of_int (Int.max 2 n)) /. log 2.)) in
  List.iter
    (fun target ->
      let applied, with_reuse = versions_with_reuse ~rng ~updates:target ~pool_size:8 in
      let without = applied + 1 in
      Common.row ppf
        [ string_of_int applied; string_of_int without; string_of_int with_reuse;
          string_of_int (bits without); string_of_int (bits with_reuse) ])
    [ 10; 50; 100; 200; 330 ];
  Format.fprintf ppf
    "  paper anchors: 330 updates need 330 versions (9 bits) without reuse,@.";
  Format.fprintf ppf "                 up to ~51 versions (6 bits) with reuse.@."

(* Figure 18: how small can the TransitTable be? Sweep the Bloom filter
   size and the learning-filter timeout; a filter too small for the
   pending set lets Dual-phase false positives steer new connections to
   the old pool. The control plane is slowed (2K inserts/s) to widen
   the pending window, as a stress test. *)

let run ~quick ppf =
  let n_vips = 2 in
  let dips_per_vip = 8 in
  let conns = if quick then 200. else 400. in
  let trace = if quick then 240. else 600. in
  let sizes = [ 1; 8; 64; 256 ] in
  let timeouts = [ 0.001; 0.005; 0.02 ] in
  (* every cell replays the same workload; only the switch differs *)
  let s =
    Common.scenario ~seed:18 ~n_vips ~dips_per_vip ~duration:Simnet.Workload.hadoop_durations
      ~conns_per_sec_per_vip:conns ~updates_per_min:10. ~trace_seconds:trace ()
  in
  Common.header ppf "Figure 18: broken connections vs TransitTable size (10 upd/min)";
  Common.row ppf ("filter bytes" :: List.map (fun t -> Printf.sprintf "timeout %gms" (1000. *. t)) timeouts);
  Common.rule ppf;
  List.iter
    (fun bytes ->
      let cells =
        List.map
          (fun timeout ->
            let cfg =
              { Silkroad.Config.default with
                Silkroad.Config.transit_bytes = bytes;
                learning_timeout = timeout;
                cpu_insertions_per_sec = 2_000. }
            in
            let _, b = Common.silkroad ~cfg ~vips:(Common.vips_of ~n_vips ~dips_per_vip) () in
            let r = Common.run b s in
            string_of_int r.Harness.Driver.broken_connections)
          timeouts
      in
      Common.row ppf (string_of_int bytes :: cells))
    sizes;
  Format.fprintf ppf
    "  paper anchors: 8B suffices at 1ms timeout; at 5ms, 8B breaks ~20@.";
  Format.fprintf ppf "  connections in an hour while 256B breaks none.@."

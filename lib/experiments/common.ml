let study_population_memo = ref None

let study_population () =
  match !study_population_memo with
  | Some pop -> pop
  | None ->
    let rng = Simnet.Prng.create ~seed:20170821 in
    let pop = Simnet.Cluster.population ~n:96 ~rng () in
    study_population_memo := Some pop;
    pop

let vip i = Netcore.Endpoint.v4 20 0 0 (1 + (i mod 250)) 80

let dip i =
  Netcore.Endpoint.v4 10 0 (1 + (i / 250)) (1 + (i mod 250)) 20

type scenario = {
  flows : Simnet.Flow.t list;
  updates : (float * Netcore.Endpoint.t * Lb.Balancer.update) list;
  horizon : float;
}

let vips_of ~n_vips ~dips_per_vip =
  List.init n_vips (fun i ->
      (vip i, Lb.Dip_pool.of_list (List.init dips_per_vip (fun j -> dip ((i * dips_per_vip) + j)))))

let scenario ?(seed = 7011) ?(n_vips = 4) ?(dips_per_vip = 8) ?duration ~conns_per_sec_per_vip
    ~updates_per_min ~trace_seconds () =
  let root = Simnet.Prng.create ~seed in
  let flows =
    List.concat
      (List.init n_vips (fun i ->
           let rng = Simnet.Prng.split root in
           let p =
             Simnet.Workload.profile ?duration ~vip:(vip i)
               ~new_conns_per_sec:conns_per_sec_per_vip ()
           in
           Simnet.Workload.take_until ~horizon:trace_seconds
             (Simnet.Workload.arrivals ~rng ~id_base:(i * 10_000_000) p)))
  in
  let updates =
    if updates_per_min <= 0. then []
    else
      List.concat
        (List.init n_vips (fun i ->
             let rng = Simnet.Prng.split root in
             let events =
               Simnet.Update_trace.generate ~rng
                 ~updates_per_min:(updates_per_min /. float_of_int n_vips)
                 ~horizon:trace_seconds ~pool_size:dips_per_vip
             in
             List.map
               (fun (e : Simnet.Update_trace.event) ->
                 let d = dip ((i * dips_per_vip) + e.Simnet.Update_trace.dip) in
                 ( e.Simnet.Update_trace.time,
                   vip i,
                   match e.Simnet.Update_trace.kind with
                   | Simnet.Update_trace.Remove -> Lb.Balancer.Dip_remove d
                   | Simnet.Update_trace.Add -> Lb.Balancer.Dip_add d ))
               events))
  in
  { flows; updates; horizon = trace_seconds +. 60. }

let fabric_flows ~seed ~n ~span vips =
  let rng = Random.State.make [| seed; 0x5eed |] in
  let vips = Array.of_list vips in
  List.init n (fun id ->
      let vip, _ = vips.(Random.State.int rng (Array.length vips)) in
      let src =
        Netcore.Endpoint.v4
          (1 + Random.State.int rng 200)
          (Random.State.int rng 250) (Random.State.int rng 250)
          (1 + Random.State.int rng 250)
          (1024 + Random.State.int rng 50000)
      in
      {
        Simnet.Flow.id;
        tuple = Netcore.Five_tuple.make ~src ~dst:vip ~proto:Netcore.Protocol.Tcp;
        start = Random.State.float rng span;
        duration = 0.5 +. Random.State.float rng 60.;
        bytes_per_sec = 1000.;
      })

let silkroad ?(cfg = Silkroad.Config.default) ~vips () =
  let sw = Silkroad.Switch.create cfg in
  List.iter (fun (v, p) -> Silkroad.Switch.add_vip sw v p) vips;
  (sw, Silkroad.Switch.balancer sw)

let run balancer (s : scenario) =
  Harness.Driver.run ~balancer ~flows:s.flows ~updates:s.updates ~horizon:s.horizon ()

(* ----- output ----- *)

let header ppf title =
  Format.fprintf ppf "@.=== %s ===@." title

let row ppf cells =
  Format.fprintf ppf "  %s@."
    (String.concat "  " (List.map (fun c -> Printf.sprintf "%-14s" c) cells))

let rule ppf = Format.fprintf ppf "  %s@." (String.make 76 '-')

let pct x = Printf.sprintf "%.2f%%" (100. *. x)
let float1 x = Printf.sprintf "%.1f" x
let sci x = Printf.sprintf "%.3g" x

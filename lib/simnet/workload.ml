type profile = {
  vip : Netcore.Endpoint.t;
  new_conns_per_sec : float;
  duration : Dist.t;
  client_ipv6 : bool;
}

(* Median 10 s with a modest spread: most Hadoop flows finish within a
   minute, a few run for minutes. *)
let hadoop_durations = Dist.lognormal_of_quantiles ~median:10. ~p99:120.

(* Median 4.5 minutes (270 s); long-lived cache sessions run for an hour. *)
let cache_durations = Dist.lognormal_of_quantiles ~median:270. ~p99:3600.

(* per-flow average rate, bytes per second *)
let rate = Dist.lognormal_of_quantiles ~median:100_000. ~p99:10_000_000.

let profile ?(duration = hadoop_durations) ?(client_ipv6 = false) ~vip ~new_conns_per_sec () =
  assert (new_conns_per_sec > 0.);
  { vip; new_conns_per_sec; duration; client_ipv6 }

let random_client rng ~ipv6 =
  let port = 1024 + Prng.int rng (65536 - 1024) in
  let ip =
    if ipv6 then Netcore.Ip.v6 (Prng.int64 rng) (Prng.int64 rng)
    else
      (* public-looking /8 to avoid colliding with the 10.x DIP space *)
      Netcore.Ip.v4 (1 + Prng.int rng 223) (Prng.int rng 256) (Prng.int rng 256)
        (Prng.int rng 256)
  in
  Netcore.Endpoint.make ip port

let arrivals ~rng ~id_base p =
  let rng = Prng.copy rng in
  let mean_gap = 1. /. p.new_conns_per_sec in
  let rec gen id at () =
    let gap = Prng.exponential rng ~mean:mean_gap in
    let start = at +. gap in
    let src = random_client rng ~ipv6:p.client_ipv6 in
    let tuple = Netcore.Five_tuple.make ~src ~dst:p.vip ~proto:Netcore.Protocol.Tcp in
    let duration = Float.max 0.001 (Dist.sample p.duration rng) in
    let bytes_per_sec = Float.max 1. (Dist.sample rate rng) in
    let flow = { Flow.id; tuple; start; duration; bytes_per_sec } in
    Seq.Cons (flow, gen (id + 1) start)
  in
  gen id_base 0.

let take_until ~horizon seq =
  let rec go acc s =
    match s () with
    | Seq.Nil -> List.rev acc
    | Seq.Cons (flow, rest) ->
      if flow.Flow.start >= horizon then List.rev acc else go (flow :: acc) rest
  in
  go [] seq

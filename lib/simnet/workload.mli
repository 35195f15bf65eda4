(** Workload generation: Poisson flow arrivals per VIP with configurable
    flow-duration and rate distributions.

    The paper's evaluation workloads (§3.2, §6.2) are reproduced by two
    canned profiles:
    - {!hadoop_durations}: median flow duration of 10 seconds
      ("we simulate Hadoop traffic with a median flow duration of 10
      seconds as in [39]");
    - {!cache_durations}: median 4.5 minutes (the cache traffic of the
      same study).

    Flows are produced as a lazy, time-ordered infinite sequence so
    experiments can stream millions of arrivals without materialising
    them. *)

type profile = {
  vip : Netcore.Endpoint.t;
  new_conns_per_sec : float;
  duration : Dist.t;
  client_ipv6 : bool;
}

val hadoop_durations : Dist.t
(** Lognormal with 10 s median, heavy tail. *)

val cache_durations : Dist.t
(** Lognormal with 270 s (4.5 min) median. *)

val profile :
  ?duration:Dist.t ->
  ?client_ipv6:bool ->
  vip:Netcore.Endpoint.t ->
  new_conns_per_sec:float ->
  unit ->
  profile
[@@silkroad.allow "surface.unused-option: client_ipv6 drives test_integration's IPv6 end-to-end run, the only check of section 4.2's 37-byte key through the switch"]
(** Each flow's average rate is lognormal with a 100 kB/s median and a
    10 MB/s p99. *)

val arrivals : rng:Prng.t -> id_base:int -> profile -> Flow.t Seq.t
(** Infinite sequence of flows with increasing start times (Poisson
    arrivals). Client 5-tuples are drawn uniformly from a synthetic
    client population; collisions are possible but astronomically
    rare. *)

val take_until : horizon:float -> Flow.t Seq.t -> Flow.t list
(** Materialize every flow that starts before [horizon]. *)

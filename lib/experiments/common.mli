(** Shared machinery for the paper-reproduction experiments: canned
    cluster populations, workload/update synthesis for a set of VIPs,
    balancer construction, and tabular output helpers.

    Every experiment is deterministic (fixed seeds) and has a [quick]
    mode that scales the workload down for CI-speed runs; the full mode
    is closer to the paper's operating points. EXPERIMENTS.md records
    which scale each reported number was produced at. *)

val study_population : unit -> Simnet.Cluster.t list
(** The fixed 96-cluster population every cross-cluster figure uses. *)

val vip : int -> Netcore.Endpoint.t
(** The i-th experiment VIP (20.0.0.i:80). *)

val dip : int -> Netcore.Endpoint.t
(** The i-th experiment DIP (10.0.x.y:20). *)

type scenario = {
  flows : Simnet.Flow.t list;
  updates : (float * Netcore.Endpoint.t * Lb.Balancer.update) list;
  horizon : float;  (** harness horizon (includes drain time) *)
}

val scenario :
  ?seed:int ->
  ?n_vips:int ->
  ?dips_per_vip:int ->
  ?duration:Simnet.Dist.t ->
  conns_per_sec_per_vip:float ->
  updates_per_min:float ->
  trace_seconds:float ->
  unit ->
  scenario
(** A multi-VIP workload plus a DIP-update schedule: per-VIP Poisson
    arrivals and independent update traces, time-sorted, ready for
    {!Harness.Driver.run}. [updates_per_min] is the aggregate rate across
    all VIPs (as in §3.2's sweeps). *)

val vips_of : n_vips:int -> dips_per_vip:int -> (Netcore.Endpoint.t * Lb.Dip_pool.t) list

val fabric_flows :
  seed:int -> n:int -> span:float -> (Netcore.Endpoint.t * Lb.Dip_pool.t) list -> Simnet.Flow.t list
(** [n] seeded random TCP flows for the multi-switch and replay
    workloads: each picks a uniform VIP from the list, a random client
    endpoint, a start uniform below [span] and a duration uniform
    between 0.5 and 60.5 seconds at 1000 B/s. Ids run from 0 to
    [n - 1]. The RNG call order is fixed: the netwide goldens and the
    netwide bench gate depend on it. *)

val silkroad : ?cfg:Silkroad.Config.t -> vips:(Netcore.Endpoint.t * Lb.Dip_pool.t) list ->
  unit -> Silkroad.Switch.t * Lb.Balancer.t

val run : Lb.Balancer.t -> scenario -> Harness.Driver.result

(** Output helpers: fixed-width table rendering shared by every bench. *)

val header : Format.formatter -> string -> unit
(** Section banner with the experiment id and title. *)

val row : Format.formatter -> string list -> unit
val rule : Format.formatter -> unit

val pct : float -> string
val float1 : float -> string
val sci : float -> string

(** Synthetic cluster populations.

    The paper studies "about a hundred clusters" of three classes — PoPs,
    Frontends and Backends (§3.1) — and reports per-cluster statistics:
    active connections per ToR (Figure 6, up to 10–15 M in the loaded
    PoPs/Backends, small in Frontends), new connections per VIP-minute
    (Figure 8, up to 50 M), and DIP-pool update rates (Figure 2, Backends
    busiest). We synthesize cluster descriptors whose cross-cluster
    distributions match those published shapes; the calibration constants
    live here and are recorded in EXPERIMENTS.md. *)

type cluster_class =
  | Pop
  | Frontend
  | Backend

type t = {
  name : string;
  cls : cluster_class;
  n_tors : int;
  n_vips : int;
  dips_per_vip : int;
  total_dips : int;
      (** distinct DIPs in the cluster — VIPs share DIPs ("a DIP is often
          shared by most of the VIPs", §3.1); ~4.2K in the paper's peak
          Backend *)
  ipv6 : bool;  (** Backends mostly IPv6; PoPs/Frontends IPv4 (§6.1) *)
  conns_per_tor_median : float;  (** active connections per ToR, median minute *)
  conns_per_tor_p99 : float;  (** ... 99th-percentile minute (Figure 6) *)
  new_conns_per_vip_min_median : float;  (** Figure 8 *)
  new_conns_per_vip_min_p99 : float;
  updates_per_min_median : float;  (** Figure 2, median minute *)
  updates_per_min_p99 : float;  (** Figure 2, p99 minute *)
  gbps_per_tor : float;  (** VIP traffic volume per ToR *)
}

val class_name : cluster_class -> string

val population : ?n:int -> rng:Prng.t -> unit -> t list
(** A study population (default 96 clusters: 1/3 of each class, echoing
    "about a hundred clusters"). *)

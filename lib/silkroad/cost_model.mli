(** Capacity, power and capital-cost comparison between SLB fleets and
    SilkRoad switches (§6.1, Figure 13 and the cost paragraph).

    Constants come straight from the paper: an SLB sustains 12 Mpps of
    52-byte packets on 8 cores behind a 10 Gbps NIC, costs ≈ 3 K USD and
    draws ≈ 200 W (Intel Xeon E5-2660); a SilkRoad on a 6.4 Tbps ASIC
    forwards ≈ 10 Gpps, holds 10 M connections, costs ≈ 10 K USD and
    draws ≈ 300 W. *)

type demand = {
  gbps : float;  (** peak load-balanced traffic *)
  mpps : float;  (** peak packet rate *)
  connections : int;  (** peak simultaneous connections *)
}

val demand_of_traffic : gbps:float -> avg_packet_bytes:int -> connections:int -> demand

val slb_count : demand -> int
(** SLBs needed: the binding constraint of NIC line rate (10 Gbps) and
    packet rate (12 Mpps). Always at least 1. *)

val silkroad_count : demand -> int
(** SilkRoad switches needed: the binding constraint of forwarding
    capacity (6.4 Tbps / 10 Gpps) and ConnTable size (10 M). At least 1. *)

val replacement_ratio : demand -> float
(** [#SLBs / #SilkRoads] — Figure 13's metric. *)

type comparison = {
  slb_watts_per_gpps : float;
  silkroad_watts_per_gpps : float;
  power_ratio : float;  (** SLB power / SilkRoad power, same throughput *)
  slb_usd_per_gpps : float;
  silkroad_usd_per_gpps : float;
  cost_ratio : float;
}

val power_and_cost : unit -> comparison
(** ≈ 500x power and ≈ 250x capital-cost advantage (§6.1). *)

(** Paper constants, exposed for tests and reports. *)

val slb_mpps : float
val silkroad_gpps : float

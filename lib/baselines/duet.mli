(** Duet (Gandhi et al., SIGCOMM'14 — reference [22]): VIPTable in the
    switching ASIC, ConnTable only in software load balancers.

    Steady state, a VIP's packets are ECMP-hashed to DIPs entirely in
    the switch — fast, but stateless. To change a DIP pool with any hope
    of PCC, Duet must:

    + redirect the VIP's traffic to SLBs, which snoop packets to build
      up a ConnTable;
    + wait a grace period so every ongoing connection has shown the SLB
      at least one packet (footnote 2 of the paper);
    + execute the pool update at the SLB;
    + eventually migrate the VIP back to the switch.

    The migration-back policy is the crux (§3.2): too early breaks old
    connections (the switch hashes them against the new pool); too late
    leaves most traffic on the slow SLB path. We implement the paper's
    three policies. Violations and SLB load emerge from simulation —
    Figures 5a/5b/16/17 are produced by driving this balancer. *)

type migrate_policy =
  | Migrate_every of float
      (** migrate VIPs back every [p] seconds (Duet's default is 600) *)
  | Migrate_pcc
      (** wait until every connection predating the last update has
          terminated — never violates PCC, maximal SLB load *)

type stats = {
  slb_packets : int;
  slb_bytes : int;
  switch_packets : int;
  switch_bytes : int;
  migrations : int;
}

val create :
  seed:int ->
  policy:migrate_policy ->
  vips:(Netcore.Endpoint.t * Lb.Dip_pool.t) list ->
  unit ->
  Lb.Balancer.t * (unit -> stats)
(** An update executes at the SLB 30 s after the redirect: only once
    every ongoing connection has had a chance to be snooped into the SLB
    ConnTable, so the grace must exceed the workload's maximum
    inter-packet gap (the harness probes every 15 s). *)

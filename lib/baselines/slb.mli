(** A software load balancer (Ananta / Maglev style, §2.2).

    Both ConnTable and VIPTable live in server software. Updates are
    atomic with respect to connection insertion (the SLB "locks VIPTable
    and holds new incoming connections in a buffer"), so an SLB never
    violates PCC — its drawbacks are throughput, latency and cost, which
    {!Silkroad.Cost_model} quantifies from the constants the paper cites
    (12 Mpps on 8 cores; 50 µs – 1 ms added latency).

    The balancer tracks packets and bytes processed so experiments can
    report SLB load. *)

type stats = {
  packets : int;
  bytes : int;
  connections_created : int;
  overload_drops : int;  (** packets shed because capacity_pps was exceeded *)
}

val create :
  seed:int ->
  ?capacity_pps:float ->
  ?vips:(Netcore.Endpoint.t * Lb.Dip_pool.t) list ->
  unit ->
  Lb.Balancer.t * (unit -> stats)
(** Returns the balancer and a function reading its traffic counters.
    [capacity_pps] bounds the packets the SLB can process per second
    (default unbounded); excess packets are dropped — the x86 box has no
    per-VIP isolation, so an overloaded VIP's traffic starves every VIP
    on the instance (§2.2). *)


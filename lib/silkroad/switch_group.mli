(** A group of redundant SilkRoad switches (§7, "Handle switch
    failures").

    In a real deployment every VIP is announced by several switches and
    ECMP splits the flows between them; all switches see the same
    DIP-pool updates and therefore hold identical {e latest} VIPTables.
    When one fails, its flows re-hash onto the survivors, where:

    - connections that used the latest version map identically (same
      VIPTable, same hash) — PCC preserved;
    - connections pinned to an {e old} version in the dead switch's
      ConnTable are lost and get re-hashed under the latest pool —
      exactly the breakage the paper says matches an SLB failure.

    Exposed as a single {!Lb.Balancer.t}; call {!fail} to kill a member
    mid-run. *)

type t

val create :
  ?cfg:Config.t -> seed:int -> switches:int ->
  vips:(Netcore.Endpoint.t * Lb.Dip_pool.t) list -> unit -> t
(** [switches >= 2] identical switches, all carrying all VIPs. *)

val balancer : t -> Lb.Balancer.t
val members : t -> Switch.t array
[@@silkroad.allow "surface.unused-export: test_silkroad checks spread and failover across the group"]
val alive : t -> int
[@@silkroad.allow "surface.unused-export: test_silkroad checks spread and failover across the group"]

val fail : t -> int -> unit
(** Kill member [i]: its ConnTable is lost and its flows re-hash to the
    survivors. Raises [Invalid_argument] if it is the last one alive. *)

(** The §4.3 3-step PCC update, one job per VIP (Figure 10). A VIP's
    {!Vip_table.phase} is its job's state:

    - [Idle] — ConnTable misses take the current version.
    - [Recording] (step 1) — misses still take the old version {e and}
      are recorded in the TransitTable Bloom filter, while the job waits
      for the connections pending at the request to be inserted or end.
    - [Dual] (step 2) — the update has executed: a miss that hits the
      Bloom filter takes the old version, any other the new one, while
      the job waits for the connections recorded in step 1 (step 3).
      Then the VIP is [Idle] again, the filter is cleared once no VIP
      is updating, and the VIP's next queued update starts.

    Only this module writes a VIP's [phase], [queued] and [current].
    {!Analysis.Modelcheck} checks what the job is for: PCC, and no
    version recycled while in use. *)

type t

val create :
  metrics:Telemetry.Registry.t ->
  Config.t ->
  Vip_table.t ->
  Dip_pool_table.t ->
  add_pending:(Vip_table.entry -> unit Netcore.Five_tuple.Tbl.t -> unit) ->
  t
(** [add_pending e waiting] adds to [waiting] every pending connection
    of [e] (tracked, neither inserted nor ended): the step-1 barrier.
    [metrics] receives the TransitTable's and the jobs' counters. *)

val transit : t -> Asic.Bloom_filter.t
(** The TransitTable. *)

(** {2 The packet path} *)

val miss : t -> Netcore.Five_tuple.t -> Vip_table.entry -> syn:bool -> record:bool -> int
(** The version a ConnTable miss of the VIP takes, as [version lsl 1],
    or [(version lsl 1) lor 1] when the packet must go to the switch
    CPU (a SYN that hits the TransitTable in [Dual]). In [Recording] it
    marks the flow in the TransitTable and, with [~record:true], records
    it as a connection step 3 waits for. Allocation-free in [Idle]. *)

val resolved : t -> now:float -> Vip_table.entry -> Netcore.Five_tuple.t -> unit
(** A pending connection of the VIP was inserted, ended or abandoned:
    it no longer gates the job. *)

(** {2 The control plane} *)

val request : t -> now:float -> Vip_table.entry -> Lb.Balancer.update -> unit
(** Start the update, or queue it behind the VIP's active job. *)

val barrier_deadline : float
[@@silkroad.allow "surface.unused-export: test_silkroad advances past the deadline to force a barrier release"]
(** Seconds of virtual time since its start after which a job's barrier
    is force-released (counted in [switch.forced_transitions]).
    {!Analysis.Modelcheck}'s [stuck] regime installs slower to race it. *)

val advance : t -> now:float -> unit
(** Force-release every barrier past {!barrier_deadline}. One float
    compare and no allocation until the oldest job is overdue. *)

val pending : t -> int
(** Active jobs plus queued updates. *)

type report = {
  ur_vip : Vip_table.entry;  (** the VIP's record *)
  ur_update : Lb.Balancer.update;
  ur_requested : float;  (** when {!request} accepted it *)
  ur_finished : float;  (** when the job completed or aborted *)
  ur_old_version : int;  (** version current when the update executed *)
  ur_new_version : int;  (** version current after the flip *)
  ur_outcome : [ `Completed | `Failed ];
}
(** One job's life, as virtual times: [ur_finished -. ur_requested] is
    the apply latency, queue wait included. A [`Failed] job (its update
    could not be published) reports [ur_old_version = ur_new_version]. *)

val on_done : t -> (report -> unit) -> unit
(** Install the (single) observer, called as each job ends. *)

val check : t -> string list
(** The violated invariants: every VIP's current version is allocated,
    no update queues on an [Idle] VIP, and the cached count of VIPs out
    of [Idle] (it gates the TransitTable clear) and oldest job start
    (it gates {!advance}'s scan) equal their recounts. *)

(** VIPTable: VIP → current DIP-pool version (§4.2, Figure 9), and the
    VIP's record. *)

type job = {
  update : Lb.Balancer.update;
  requested : float;  (** when the update was requested (queue wait included) *)
  started : float;  (** when it left the queue and step 1 began *)
  mutable waiting : unit Netcore.Five_tuple.Tbl.t;
      (** the pending connections gating the next phase transition *)
  recorded : unit Netcore.Five_tuple.Tbl.t;
      (** connections recorded in the Bloom filter during step 1, still
          pending; at execution they become [waiting] itself *)
}
(** The update a VIP out of phase [Idle] is carrying through §4.3's
    three steps. *)

type phase =
  | Idle
  | Recording of job  (** step 1 *)
  | Dual of {
      old_version : int;  (** the version current when the update executed *)
      job : job;
    }  (** step 2 *)
(** The VIP's step in the 3-step update; {!Update_job} owns the transitions. *)

type entry = {
  vip : Netcore.Endpoint.t;
  pools : Dip_pool_table.vip;  (** the VIP's DIPPoolTable state *)
  mutable current : int;  (** the version new connections are assigned *)
  mutable phase : phase;
  queued : (float * Lb.Balancer.update) Queue.t;
      (** later updates with their request times, run in order once the
          phase returns to [Idle]; empty whenever it is [Idle] *)
  mutable meter : Asic.Meter.t option;  (** the §5.2 rate limiter *)
  completed : Telemetry.Registry.Counter.t Lazy.t;
      (** [switch.vip.updates_completed{vip}], registered when forced *)
  metered_drops : Telemetry.Registry.Counter.t Lazy.t;
      (** [switch.vip.metered_drops{vip}], registered when forced *)
}
(** A VIP's one record: its VIPTable action data (current version and
    update phase) linked to its DIPPoolTable state, its update queue and
    its meter. The packet path finds it once per packet and a connection
    holds it for its life. Only {!Update_job} writes [current], [phase]
    and [queued]. An entry {!remove}d from the table is never reused: a
    VIP added again gets a fresh one. *)

type t

val create : metrics:Telemetry.Registry.t -> t
(** [metrics] receives the per-VIP counters. *)

val add : t -> Netcore.Endpoint.t -> Dip_pool_table.vip -> version:int -> entry
(** Raises [Invalid_argument] when the VIP exists. *)

val find : t -> Netcore.Endpoint.t -> entry
(** Raises [Not_found]. Allocation-free. *)

val mem : t -> Netcore.Endpoint.t -> bool

val current : t -> Netcore.Endpoint.t -> int option
(** The VIP's current version. *)

val remove : t -> entry -> unit
(** Remove a VIP (serve-mode VIP teardown). *)

val iter : (entry -> unit) -> t -> unit

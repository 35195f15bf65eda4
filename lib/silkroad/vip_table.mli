(** VIPTable: VIP → current DIP-pool version (§4.2, Figure 9).

    During a 3-step PCC update the table is in one of three phases:

    - [Idle] — one version; ConnTable misses map to it.
    - [Recording] (step 1, t_req..t_exec) — the update has been
      requested but not executed: misses still map to the old version
      {e and} are recorded in the TransitTable Bloom filter.
    - [Dual] (step 2, t_exec..t_finish) — the update has executed:
      misses consult the Bloom filter; a hit means the connection is an
      old pending one and takes the old version, a miss takes the new. *)

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
  | Recording of job
  | Dual of {
      old_version : int;  (** the version current when the update executed *)
      job : job;
    }

type entry = private {
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
    holds it for its life. An entry {!remove}d from the table is never
    reused: a VIP added again gets a fresh one. *)

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

val start_recording : t -> entry -> job -> unit
(** Step 1: phase [Idle] → [Recording job]. Raises on wrong phase. *)

val execute : entry -> new_version:int -> unit
(** Step 2: phase [Recording job] → [Dual]; the new version becomes
    current, the former current becomes the Dual's old version, and the
    job's [recorded] set becomes its [waiting] set. *)

val finish : t -> entry -> unit
(** Step 3: phase [Dual] → [Idle]. *)

val cancel_recording : t -> entry -> unit
(** Abort an update before execution: [Recording] → [Idle] (e.g. when
    version allocation failed). *)

val set_meter : entry -> Asic.Meter.t option -> unit
(** Attach ([Some]) or detach ([None]) the VIP's meter. *)

val remove : t -> entry -> unit
(** Remove a VIP (serve-mode VIP teardown). Raises [Invalid_argument]
    when it is not in phase [Idle] — an in-flight 3-step update must
    finish before its VIP can be withdrawn. *)

val updating_count : t -> int
(** VIPs not in phase [Idle] — used to decide when the shared
    TransitTable may be cleared. *)

val iter : (entry -> unit) -> t -> unit

val iter_jobs : (entry -> job -> unit) -> t -> unit
(** [f e job] for each VIP [e] out of phase [Idle], with its job. *)

(** The metrics registry: named counters, gauges and streaming
    histograms, optionally scoped by labels (per-VIP, per-balancer,
    per-switch), with JSON/CSV snapshot export.

    Every subsystem of the reproduction — the switch and its ASIC
    primitives, the baselines, the harness driver — reports through one
    of these instead of ad-hoc mutable fields, so any run can emit one
    comparable machine-readable snapshot.

    Handles ([Counter.t], [Gauge.t]) are plain mutable cells: hold on to
    them on hot paths, the name lookup happens once at registration.
    Registering the same (name, labels) twice returns the same metric;
    registering it as a different kind raises [Invalid_argument]. *)

type t

type labels = (string * string) list

module Counter : sig
  type t

  val incr : t -> unit
  val add : t -> int -> unit
  val value : t -> int
end

module Gauge : sig
  type t

  val set : t -> float -> unit

  val set_int : t -> int -> unit
  (** [set g (float_of_int n)], without boxing a float: for the
      count-valued gauges the packet path writes. *)

  val add : t -> float -> unit
  val value : t -> float
end

val create : unit -> t

val counter : t -> ?labels:labels -> string -> Counter.t
val gauge : t -> ?labels:labels -> string -> Gauge.t

val histogram : t -> ?labels:labels -> ?spec:Histogram.spec -> string -> Histogram.t
(** [?spec] only applies on first registration. *)

val counter_value : t -> ?labels:labels -> string -> int
(** 0 when absent. *)

val gauge_value : t -> ?labels:labels -> string -> float
(** 0 when absent. *)

val find_histogram : t -> ?labels:labels -> string -> Histogram.t option

val snapshot : t -> Snapshot.t
(** Deterministic order: sorted by metric name, then labels. *)

val merge_into : into:t -> t -> unit
(** Fold the right registry into [into]: counters and gauges add,
    histograms merge — the aggregation a {!Snapshot} of a whole switch
    group wants. Gauges are summed, which reads naturally for
    occupancies and sizes. Raises [Invalid_argument] on a kind or
    histogram-spec mismatch. *)

val merge_all : t list -> t
(** A fresh registry holding the {!merge_into}-fold of the list — how
    sharded replay aggregates its per-shard switch registries into one
    snapshot. *)

val to_json : t -> string
val to_csv : t -> string

(** A constant-memory streaming histogram with logarithmic buckets.

    Built for per-packet latencies and occupancies at "millions of
    users" scale: recording a value is O(1), the footprint is a fixed
    [int array] regardless of how many values are observed, and
    quantiles (median, p99, p999, ...) are estimated by walking the
    bucket counts. Bucket boundaries grow geometrically, so the relative
    error of a quantile estimate is bounded by half a bucket width —
    under 3% at the default resolution of 40 buckets per decade — which
    is the discipline Charon and Concury apply to datapath telemetry.

    Two histograms with the same bucketing {!spec} can be merged
    with {!merge_into} (commutatively and associatively), which is how
    the network-wide replay aggregates its switches. *)

type t

type spec = {
  lo : float;  (** lower bound of the first regular bucket, > 0 *)
  decades : int;  (** how many powers of ten the regular buckets span *)
  buckets_per_decade : int;
}

val create : ?spec:spec -> unit -> t

val spec : t -> spec

val observe : t -> float -> unit
(** Record one value. Values below [spec.lo] (including zero and
    negatives) land in an underflow bucket, values beyond the last
    boundary in an overflow bucket; both still count toward [count],
    [sum], [min] and [max], so totals are exact even when the range is
    misjudged. *)

val count : t -> int
val sum : t -> float

val min_value : t -> float
(** Smallest observed value; 0 when empty. *)

val max_value : t -> float

val quantile : t -> float -> float
[@@silkroad.allow "surface.unused-export: test_telemetry checks accuracy at arbitrary quantiles; the program reads the fixed median/p90/p99/p999 built on it"]
(** [quantile t q] with [q] in [0, 1]: the estimated value below which a
    [q] fraction of observations fall, clamped to the observed
    [min]/[max]. 0 when empty. *)

val median : t -> float
val p90 : t -> float
val p99 : t -> float
val p999 : t -> float

val merge_into : into:t -> t -> unit
(** Add the right histogram's contents into [into]. Raises
    [Invalid_argument] when the specs differ. *)

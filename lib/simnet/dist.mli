(** Random distributions used to synthesize the paper's workloads.

    A distribution is a sampler. Workload calibration helpers build
    distributions from the anchor points the paper publishes (e.g. a
    downtime with median 3 minutes and 99th-percentile 100 minutes —
    Figure 4). *)

type t

val sample : t -> Prng.t -> float

val constant : float -> t

val lognormal_of_quantiles : median:float -> p99:float -> t
(** The lognormal hitting the given median and 99th percentile — the
    natural way to encode the paper's "median 3 min, p99 100 min"
    shapes. Requires [0 < median < p99]. *)

val truncated : t -> lo:float -> hi:float -> t
(** Clamps samples into [lo, hi]. *)

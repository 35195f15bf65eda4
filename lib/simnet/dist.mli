(** Random distributions used to synthesize the paper's workloads.

    Each distribution carries both a sampler and (where meaningful) its
    analytic mean, so tests can check sampling against theory. Workload
    calibration helpers build distributions from the anchor points the
    paper publishes (e.g. a downtime with median 3 minutes and
    99th-percentile 100 minutes — Figure 4). *)

type t

val sample : t -> Prng.t -> float
val mean : t -> float option
[@@silkroad.allow "surface.unused-export: the analytic mean test_simnet checks sampling against"]
(** Analytic mean when known in closed form. *)

val constant : float -> t
val exponential : mean:float -> t
[@@silkroad.allow "surface.unused-export: a workload shape test_simnet checks against its analytic mean"]

val lognormal_of_quantiles : median:float -> p99:float -> t
(** The lognormal hitting the given median and 99th percentile — the
    natural way to encode the paper's "median 3 min, p99 100 min"
    shapes. Requires [0 < median < p99]. *)

val pareto : shape:float -> scale:float -> t
[@@silkroad.allow "surface.unused-export: a workload shape test_simnet checks against its analytic mean"]
(** Heavy-tailed; [scale] is the minimum value. *)

val mixture : (t * float) list -> t
[@@silkroad.allow "surface.unused-export: a workload shape test_simnet checks against its analytic mean"]
(** Weighted mixture. *)

val scaled : t -> float -> t
[@@silkroad.allow "surface.unused-export: a workload shape test_coverage checks against its analytic mean"]
(** [scaled d f] samples [d] and multiplies by [f]. *)

val truncated : t -> lo:float -> hi:float -> t
(** Clamps samples into [lo, hi]. The analytic mean is dropped. *)


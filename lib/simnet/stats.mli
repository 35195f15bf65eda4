(** Descriptive statistics for experiment reporting: percentiles and
    CDFs. All figures in the paper are CDFs across clusters or series
    over a swept parameter; this module produces those rows. *)

val percentile : float list -> float -> float
(** [percentile xs p] with [p] in [0, 100], by linear interpolation
    between order statistics. Raises [Invalid_argument] on []. *)

val median : float list -> float
val p99 : float list -> float

(** List-free counterparts over streaming telemetry histograms — use
    these when the sample count is unbounded (the harness driver feeds
    every probe latency through one); the list versions above remain
    exact for small inputs. Accuracy is the histogram's bucket width
    (under 6% relative at the default 40 buckets per decade). *)

val median_of_histogram : Telemetry.Histogram.t -> float
val p99_of_histogram : Telemetry.Histogram.t -> float

val ccdf_at : float list -> float -> float
(** Fraction of samples strictly greater than the threshold ("Y% of
    clusters have more than X updates" — Figure 2's axis). *)

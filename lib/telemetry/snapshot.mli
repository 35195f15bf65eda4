(** A point-in-time, immutable view of a {!Registry}: the
    machine-readable output every experiment and benchmark run emits.

    Histograms appear as fixed summaries (count/sum/min/max and the
    quantiles the paper's figures use) rather than raw buckets, so
    snapshots from different runs are directly comparable rows. *)

type summary = {
  count : int;
  sum : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
  p999 : float;
}

type value =
  | Counter of int
  | Gauge of float
  | Histogram of summary

type item = {
  name : string;
  labels : (string * string) list;  (** sorted by label key *)
  value : value;
}

type t = item list

val summarize : Histogram.t -> summary

val find : t -> string -> item option
(** The unlabeled metric. *)

val to_json_value : t -> Json.t
val to_json : t -> string
(** Pretty-printed JSON array, one object per metric. *)

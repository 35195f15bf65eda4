(** Figure 2: the share of clusters above each DIP-pool update rate in
    their median and 99th-percentile minute. *)

val run : quick:bool -> Format.formatter -> unit

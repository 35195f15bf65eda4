(** Figure 12: SilkRoad's SRAM use per ToR switch, CDF across
    clusters. *)

val run : quick:bool -> Format.formatter -> unit

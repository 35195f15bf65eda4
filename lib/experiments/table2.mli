(** Table 2: SilkRoad's additional hardware resources at 1M
    connections, relative to switch.p4, beside the paper's values. *)

val run : quick:bool -> Format.formatter -> unit

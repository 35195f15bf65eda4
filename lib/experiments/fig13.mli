(** Figure 13: how many SLBs one SilkRoad replaces, per cluster. *)

val run : quick:bool -> Format.formatter -> unit

(** Figure 4: the CDF of DIP downtime by root cause, at the paper's
    axis points. *)

val run : quick:bool -> Format.formatter -> unit

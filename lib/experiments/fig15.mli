(** Figure 15: the version numbers a Backend VIP needs with and
    without version reuse. *)

val run : quick:bool -> Format.formatter -> unit

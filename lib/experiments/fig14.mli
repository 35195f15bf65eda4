(** Figure 14: the memory the digest and version encodings save over a
    naive ConnTable, CDF across clusters. *)

val run : quick:bool -> Format.formatter -> unit

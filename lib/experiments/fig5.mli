(** Figure 5: keeping the ConnTable only in SLBs (Duet), per migration
    policy: the SLBs' share of traffic and of broken connections as the
    DIP-pool update rate grows. *)

val run : quick:bool -> Format.formatter -> unit
(** Hadoop-like flow durations (10 s median), §3.2's conservative
    setting. *)

val run_cache : quick:bool -> Format.formatter -> unit
(** The same sweep under cache-like flow durations (§3.2's closing
    observation). *)

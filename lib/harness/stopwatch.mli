(** The allowlisted wall clock.

    Simulated time always comes from the harness; real (wall) time may
    only be read here, and only to {e report} how long model-scale work
    took (e.g. the scalability experiment's insert rate) — never to
    influence simulation state. [silkroad-lint]'s [det.wall-clock] rule
    flags any other wall-clock read in [lib/] or [bin/]. *)

val elapsed : unit -> float
(** Seconds on [CLOCK_MONOTONIC] since an arbitrary origin; only
    differences are meaningful. *)

val time : (unit -> 'a) -> 'a * float
(** [time f] runs [f] and returns its result with the wall-clock
    seconds it took. *)

val time_metric : ?metrics:Telemetry.Registry.t -> name:string -> (unit -> 'a) -> 'a * float
(** [time] that additionally records the duration on gauge [name] when
    a registry is given. *)

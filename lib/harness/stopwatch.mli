(** The allowlisted wall clock.

    Simulated time always comes from the harness; real (wall) time may
    only be read here, and only to {e report} how long model-scale work
    took (e.g. the scalability experiment's insert rate) — never to
    influence simulation state. [silkroad-lint]'s [det.wall-clock] rule
    flags any other wall-clock read in [lib/] or [bin/]. *)

val time : (unit -> 'a) -> 'a * float
(** [time f] runs [f] and returns its result with the wall-clock
    seconds it took. *)


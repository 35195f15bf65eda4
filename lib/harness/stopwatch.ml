(* The one module allowed to read the wall clock: everything else takes
   simulated [now] from the harness, and silkroad-lint's det.wall-clock
   rule enforces it. Timings measured here are *reported*, never fed
   back into simulation state, so determinism of results is preserved. *)
[@@@silkroad.allow "det.wall-clock"]

(* CLOCK_MONOTONIC, not Sys.time: Sys.time is CPU time summed over every
   domain, so a run on two domains would be charged twice what a user
   waits for *)
let elapsed () = Int64.to_float (Monotonic_clock.clock_linux_get_time ()) *. 1e-9

let time f =
  let t0 = elapsed () in
  let x = f () in
  let dt = elapsed () -. t0 in
  (x, dt)

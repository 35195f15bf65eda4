(* The benchmark's only clock: CLOCK_MONOTONIC through bechamel's
   noalloc, unboxed stub, as integer nanoseconds. Wall time, not
   Sys.time (process CPU seconds summed over every domain), so a run on
   two domains is charged what a user waits for. *)

let now_ns () = Int64.to_int (Monotonic_clock.clock_linux_get_time ())
let seconds_since t0 = float_of_int (now_ns () - t0) *. 1e-9

let time f =
  let t0 = now_ns () in
  let x = f () in
  (x, seconds_since t0)

(* Peak resident set of this process so far, in MB: VmHWM from
   /proc/self/status (kB). 0 where procfs is missing. *)
let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> 0.
  | status ->
    List.fold_left
      (fun acc line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] ->
          (match String.split_on_char ' ' (String.trim v) with
           | kb :: _ -> (try float_of_string kb /. 1024. with Failure _ -> acc)
           | [] -> acc)
        | _ -> acc)
      0. (String.split_on_char '\n' status)

let median l =
  match List.sort Float.compare l with
  | [] -> nan
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

type 'm t = {
  capacity : int;
  timeout : float;
  keys : unit Netcore.Five_tuple.Tbl.t;
  (* the pending events, oldest first, in two parallel vectors that
     grow by doubling (to at most twice [capacity]) *)
  mutable payloads : 'm array;
  mutable times : float array;
  mutable len : int;
  c_offered : Telemetry.Registry.Counter.t;
  c_dropped : Telemetry.Registry.Counter.t;
  g_pending : Telemetry.Registry.Gauge.t;
}

let create ?metrics ~capacity ~timeout () =
  assert (capacity > 0);
  assert (timeout >= 0.);
  let reg = match metrics with Some r -> r | None -> Telemetry.Registry.create () in
  {
    capacity;
    timeout;
    keys = Netcore.Five_tuple.Tbl.create 256;
    payloads = [||];
    times = [||];
    len = 0;
    c_offered = Telemetry.Registry.counter reg "learning.offered";
    c_dropped = Telemetry.Registry.counter reg "learning.dropped";
    g_pending = Telemetry.Registry.gauge reg "learning.pending";
  }

let capacity t = t.capacity
let pending t = t.len

(* [Array.append] doubles the payloads: an [Array.make] too big for the
   minor heap whose filler is young forces a minor collection first *)
let push t m now =
  let n = t.len in
  if n = Array.length t.payloads then begin
    let times = Array.make (Int.max 16 (2 * n)) 0. in
    Array.blit t.times 0 times 0 n;
    t.payloads <- (if n = 0 then Array.make 16 m else Array.append t.payloads t.payloads);
    t.times <- times
  end;
  t.payloads.(n) <- m;
  t.times.(n) <- now;
  t.len <- n + 1

let offer t ~now k m =
  Telemetry.Registry.Counter.incr t.c_offered;
  if Netcore.Five_tuple.Tbl.mem t.keys k then `Duplicate
  else if t.len >= t.capacity then begin
    Telemetry.Registry.Counter.incr t.c_dropped;
    `Dropped
  end
  else begin
    Netcore.Five_tuple.Tbl.replace t.keys k ();
    push t m now;
    Telemetry.Registry.Gauge.set_int t.g_pending t.len;
    `Accepted
  end

let next_deadline t = if t.len = 0 then None else Some (t.times.(0) +. t.timeout)

(* The per-packet probe returns a bool: [next_deadline]'s [Some] would
   be allocated on every call while an event waits. *)
let due t ~now = t.len > 0 && t.times.(0) +. t.timeout <= now

let drain t =
  let events = ref [] in
  for i = t.len - 1 downto 0 do
    events := t.payloads.(i) :: !events
  done;
  t.len <- 0;
  Netcore.Five_tuple.Tbl.reset t.keys;
  Telemetry.Registry.Gauge.set_int t.g_pending 0;
  !events

let iter t f =
  for i = 0 to t.len - 1 do
    f t.payloads.(i)
  done

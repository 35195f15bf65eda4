type 'm t = {
  capacity : int;
  timeout : float;
  keys : unit Netcore.Five_tuple.Tbl.t;
  queue : (Netcore.Five_tuple.t * 'm * float) Queue.t;
  mutable dropped : int;
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
    queue = Queue.create ();
    dropped = 0;
    c_offered = Telemetry.Registry.counter reg "learning.offered";
    c_dropped = Telemetry.Registry.counter reg "learning.dropped";
    g_pending = Telemetry.Registry.gauge reg "learning.pending";
  }

let capacity t = t.capacity
let timeout t = t.timeout

let pending t = Queue.length t.queue
let dropped t = t.dropped

let offer t ~now k m =
  Telemetry.Registry.Counter.incr t.c_offered;
  if Netcore.Five_tuple.Tbl.mem t.keys k then `Duplicate
  else if Queue.length t.queue >= t.capacity then begin
    t.dropped <- t.dropped + 1;
    Telemetry.Registry.Counter.incr t.c_dropped;
    `Dropped
  end
  else begin
    Netcore.Five_tuple.Tbl.replace t.keys k ();
    Queue.add (k, m, now) t.queue;
    Telemetry.Registry.Gauge.set t.g_pending (float_of_int (Queue.length t.queue));
    `Accepted
  end

let oldest_time t =
  match Queue.peek_opt t.queue with
  | Some (_, _, at) -> Some at
  | None -> None

let ready t ~now =
  Queue.length t.queue >= t.capacity
  ||
  match oldest_time t with
  | Some at -> now -. at >= t.timeout
  | None -> false

let next_deadline t =
  match oldest_time t with
  | Some at -> Some (at +. t.timeout)
  | None -> None

(* Option-free [next_deadline] for per-packet polling: the switch's
   [advance] calls this on every packet, and the [Some] boxes of
   [next_deadline]/[oldest_time] were measurable on the replay path. *)
let[@inline] next_deadline_or t ~default =
  if Queue.is_empty t.queue then default
  else
    let _, _, at = Queue.peek t.queue in
    at +. t.timeout

let drain t =
  let events = Queue.fold (fun acc (k, m, _) -> (k, m) :: acc) [] t.queue in
  Queue.clear t.queue;
  Netcore.Five_tuple.Tbl.reset t.keys;
  Telemetry.Registry.Gauge.set t.g_pending 0.;
  List.rev events

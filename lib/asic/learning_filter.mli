(** The hardware learning filter.

    When the first packet of a connection misses ConnTable, the ASIC
    records a learning event. To avoid interrupting the switch CPU for
    every packet, events are batched in a learning filter that also
    removes duplicates (several packets of the same connection produce
    one event). The CPU is notified when the filter is full or after a
    configurable timeout — the paper expects 500 µs to 5 ms (§4.3).

    This window is precisely what creates {e pending connections}: flows
    the hardware has seen but whose ConnTable entry is not yet installed.

    Events are deduplicated by connection 5-tuple (hashed on its cached
    [pre], {!Netcore.Five_tuple.Tbl}) and carry a payload ['m]. Time is
    the simulator's float seconds. *)

type 'm t

val create :
  ?metrics:Telemetry.Registry.t -> capacity:int -> timeout:float -> unit -> 'm t
(** [capacity] is the number of distinct pending events the filter can
    hold ("up to thousands"); [timeout] the notification deadline in
    seconds. [?metrics] is the registry the filter reports through:
    [learning.offered] / [learning.dropped] counters and a
    [learning.pending] gauge. *)

val capacity : _ t -> int
val timeout : _ t -> float

val offer : 'm t -> now:float -> Netcore.Five_tuple.t -> 'm -> [ `Accepted | `Duplicate | `Dropped ]
(** Record an event. [`Duplicate] when the key is already pending
    (removed by hardware dedup); [`Dropped] when the filter is full —
    the connection will be re-learned by a later packet. *)

val pending : _ t -> int
val dropped : _ t -> int
(** Total events dropped because the filter was full. *)

val ready : _ t -> now:float -> bool
(** True when the CPU should drain: filter full, or the oldest pending
    event has waited at least [timeout]. *)

val next_deadline : _ t -> float option
(** Absolute time at which the timeout of the oldest event fires, if any
    event is pending. *)

val next_deadline_or : _ t -> default:float -> float
(** Allocation-free {!next_deadline}: the deadline, or [default] when no
    event is pending. Hot-path variant for per-packet polling. *)

val drain : 'm t -> (Netcore.Five_tuple.t * 'm) list
(** Hand all pending events to the CPU, oldest first, and empty the
    filter. *)

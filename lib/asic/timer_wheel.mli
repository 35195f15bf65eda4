(** A hashed timing wheel for entry aging.

    Hardware tables age entries with coarse-grained timers rather than
    per-entry scans; this wheel gives the control plane the same O(1)
    schedule/advance behaviour. Keys are scheduled at absolute deadlines
    and delivered (at wheel granularity) by {!advance}; re-scheduling a
    key replaces its previous deadline, so the lazy-refresh idiom —
    schedule once, verify staleness on expiry, reschedule if the entry
    saw traffic — costs one wheel operation per timeout rather than one
    per packet.

    Keys are 5-tuples, the only thing the switch ages: the slot tables
    hash each tuple's cached [pre] ({!Netcore.Five_tuple.Tbl}). *)

type t

val create : granularity:float -> slots:int -> unit -> t
(** A wheel spanning [granularity *. slots] seconds; deadlines further
    out than one revolution are handled correctly (they survive
    intermediate passes). [granularity > 0], [slots >= 2]. *)

val schedule : t -> key:Netcore.Five_tuple.t -> at:float -> unit
(** (Re)schedule [key] to fire at absolute time [at]. *)

val cancel : t -> key:Netcore.Five_tuple.t -> unit
val mem : t -> key:Netcore.Five_tuple.t -> bool
val scheduled : t -> int

val advance : t -> now:float -> Netcore.Five_tuple.t list
(** All keys whose deadline lies in a tick that has completed by [now],
    in deadline order, equal deadlines in the order they were
    (last) scheduled; they are removed from the wheel. Delivery is at
    wheel precision: a key scheduled at [at] fires on the first call
    with [now >= (floor (at / granularity) + 1) * granularity], i.e. up
    to one granularity late. Calls that do not cross a tick boundary
    are O(1) and allocation-free — [advance] is safe to call per
    packet. *)

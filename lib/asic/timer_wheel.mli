(** A hashed timing wheel for entry aging.

    Hardware tables age entries with coarse-grained timers rather than
    per-entry scans; this wheel gives the control plane the same O(1)
    schedule/cancel/advance behaviour. Payloads are scheduled at absolute
    deadlines and delivered (at wheel granularity) by {!advance}. The
    lazy-refresh idiom — schedule once, verify staleness on expiry,
    reschedule if the entry saw traffic — costs one wheel operation per
    timeout rather than one per packet.

    The wheel keeps no key index. Each slot is a dense vector, and a
    payload's position in it is reported to the payload's owner through
    the [set_pos] callback given to {!create}: when it is scheduled,
    whenever a {!cancel} moves it, and ({!no_pos}) when it leaves the
    wheel. The owner records that position and passes it back to
    {!cancel}, which is an O(1) swap-remove: the slot's last entry moves
    into the hole and its new position is reported. *)

type 'a t

val no_pos : int
(** [-1]: the position reported for a payload that left the wheel,
    whether delivered by {!advance} or cancelled. *)

val create :
  ?set_pos:('a -> int -> unit) -> granularity:float -> slots:int -> unit -> 'a t
(** A wheel spanning [granularity *. slots] seconds; deadlines further
    out than one revolution are handled correctly (they survive
    intermediate passes). [granularity > 0], [slots >= 2]. [set_pos]
    (default: ignore) receives every position change. *)

val schedule : 'a t -> key:'a -> at:float -> unit
(** Add [key] to fire at absolute time [at], and report its position.
    The wheel does not look for an earlier entry of [key]: to move a
    deadline, {!cancel} the recorded position first. *)

val cancel : 'a t -> pos:int -> unit
(** Remove the entry at [pos], the position last reported for it, and
    report {!no_pos} for it. [pos = no_pos] is a no-op. Raises
    [Invalid_argument] when [pos] holds no entry. *)

val key_at : 'a t -> pos:int -> 'a
[@@silkroad.allow "surface.unused-export: test_asic checks that cancel and fire keep each payload at the position it holds"]
(** The payload at [pos]. Raises [Invalid_argument] when [pos] holds no
    entry. *)

val iter : 'a t -> (int -> 'a -> unit) -> unit
(** [iter t f] calls [f pos key] for every scheduled entry, in no
    particular order. *)

val scheduled : _ t -> int

val advance : 'a t -> now:float -> 'a list
(** All payloads whose deadline lies in a tick that has completed by
    [now], in deadline order, equal deadlines in the order they were
    scheduled; they are removed from the wheel. Delivery is at wheel
    precision: a payload scheduled at [at] fires on the first call with
    [now >= (floor (at / granularity) + 1) * granularity], i.e. up to
    one granularity late. Calls that do not cross a tick boundary are
    O(1) and allocation-free — [advance] is safe to call per packet. *)

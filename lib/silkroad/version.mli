(** DIP-pool version numbers and their allocator.

    SilkRoad stores a small version number in each ConnTable entry
    instead of the DIP itself (§4.2). Versions are a finite resource
    (2^version_bits, 64 by default), so freed numbers return to a ring
    buffer for reassignment; the paper observed 6 bits suffice for
    production update patterns once versions are {e reused} across
    remove/add pairs. *)

type t

val create : bits:int -> t
(** All 2^bits version numbers free. *)

val capacity : t -> int
val free_count : t -> int
[@@silkroad.allow "surface.unused-export: test_silkroad checks the version allocator's bookkeeping"]

val allocate : t -> (int, [ `Exhausted ]) result
(** Take the next free version number from the ring buffer. *)

val release : t -> int -> unit
(** Return a version to the ring buffer. Raises [Invalid_argument] if it
    was not allocated. *)

val is_allocated : t -> int -> bool
[@@silkroad.allow "surface.unused-export: test_silkroad checks the version allocator's bookkeeping"]
val exhaustions : t -> int
(** How many allocations have failed — the paper's "very rare chance
    that we use out all the versions". *)

(** ConnTable: the per-connection state table in the ASIC (§4.2).

    A multi-stage cuckoo exact-match table whose entries store only a
    16-bit per-stage hash {e digest} of the 5-tuple (instead of 37 bytes
    for IPv6) and a 6-bit DIP-pool {e version} (instead of an 18-byte
    DIP), packed into one word per slot beside the entry's {e handle}:
    an int naming the connection in the switch software, whose copy of
    the true key the table reads through it. Hardware lookups may
    therefore falsely hit a
    colliding entry; a TCP SYN that hits an existing entry signals
    exactly this, and the switch software repairs it by relocating the
    resident entry to a stage whose different hash function separates
    the two connections.

    Insertions and removals are software operations (the switch CPU runs
    the cuckoo BFS); the {!Switch} module drives their timing.

    A table made with [~key_of] holds its owner's handles ({!Switch}'s
    connection slab) and is driven through the [_handle] functions. One
    made without it keeps its entries' tuples itself, one handle per
    tuple for the table's life, and is driven by tuple ({!insert},
    {!remove}, {!repair_collision}); both go through the same table and
    shadow index. *)

type t

type lookup_result = {
  version : int;
  exact : bool;  (** false when the hit is a digest false positive *)
}

val create :
  ?metrics:Telemetry.Registry.t -> ?key_of:(int -> Netcore.Five_tuple.t) -> Config.t -> t
(** [?metrics] is the registry the table reports through:
    [conn_table.false_hits] / [conn_table.repairs] counters and
    [conn_table.size] / [conn_table.occupancy] gauges. The dedicated
    accessors below read the same counters.

    [?key_of h] is the tuple of the connection the caller calls [h]; it
    must answer for every handle the table holds. Without it the table
    keeps its tuples itself. *)

val capacity : t -> int
val size : t -> int
val occupancy : t -> float

val lookup_code : t -> Netcore.Five_tuple.t -> int
(** Hardware lookup, allocation-free: [-1] on a miss, otherwise
    [(version lsl 1) lor exact_bit]. Counts false positives as a side
    effect. *)

val lookup_entry : t -> Netcore.Five_tuple.t -> int
(** {!lookup_code} with the matched entry's handle above it: [-1] on a
    miss, otherwise [(handle lsl 32) lor (version lsl 1) lor exact_bit].
    On an exact hit the handle is the flow's own. *)

val lookup : t -> Netcore.Five_tuple.t -> lookup_result option
(** {!lookup_code}, decoded. *)

val probe_positions : t -> Netcore.Five_tuple.t -> (int * int * int) list
(** [(stage, row, digest)] the hardware probes for this flow — a pure
    function of the table geometry and seed, independent of contents.
    Two flows can falsely hit each other iff they share a
    [(stage, row, digest)] triple. *)

val mem_exact : t -> Netcore.Five_tuple.t -> bool

val stage_of : t -> Netcore.Five_tuple.t -> int option
[@@silkroad.allow "surface.unused-export: test_silkroad's differential against the reference ConnTable compares placements through it"]
(** Stage holding this flow's own entry (software view, by true key). *)

val placement_safe : t -> Netcore.Five_tuple.t -> stage:int -> row:int -> bool
[@@silkroad.allow "surface.unused-export: test_silkroad's differential against the reference ConnTable compares the placement veto through it"]
(** The shadow-index veto every placement passes (DESIGN.md §7):
    [false] when an entry for the flow at [(stage, row)] would be
    falsely matched by a tracked connection other than the flow itself.
    [row] must be the flow's own row at [stage]. *)

val insert : t -> Netcore.Five_tuple.t -> version:int -> (int, [ `Full | `Duplicate ]) result
(** Software insertion; [Ok moves] gives the cuckoo move count. Only on
    a table that keeps its own tuples (raises [Invalid_argument]
    otherwise), as are {!repair_collision} and {!remove}'s effect. *)

val remove : t -> Netcore.Five_tuple.t -> bool
[@@silkroad.allow "surface.unused-export: remove_handle by tuple, which test_silkroad's Ct_remove reference differential and test_alloc's insert + remove pin drive; the switch removes by handle"]

val insert_handle : t -> int -> version:int -> (int, [ `Full | `Duplicate ]) result
(** {!insert} of handle [h]'s connection; [`Duplicate] when [h] already
    has an entry. *)

val remove_handle : t -> int -> bool
(** Remove handle [h]'s entry; false when it has none. *)

val repair_handle : t -> int -> version:int -> (unit, [ `Full ]) result
(** {!repair_collision} for handle [h]'s connection. *)

val iter_handles : t -> (int -> unit) -> unit
(** Every entry's handle, in slot order. *)

val repair_collision :
  t -> Netcore.Five_tuple.t -> version:int -> (unit, [ `Full ]) result
[@@silkroad.allow "surface.unused-export: repair_handle by tuple, which test_silkroad's reference differential and test_alloc's repair pin drive; the switch repairs by handle"]
(** Called when a SYN of [flow] falsely hit an existing entry: relocate
    the colliding resident entry to another stage and insert [flow] with
    its own version so that both connections subsequently hit their own
    entries exactly. Retries across stages; [`Full] if the table cannot
    accommodate the separation. *)

val false_hits : t -> int
(** Hardware lookups that matched an entry whose true key differed. *)

val repairs : t -> int
val moves : t -> int
val failed_inserts : t -> int
[@@silkroad.allow "surface.unused-export: test_silkroad's differential against the reference ConnTable compares failures through it"]

val greedy_kicks : t -> int
(** Inserts resolved by the cuckoo greedy depth-1 kick pass. *)

val bfs_expansions : t -> int
(** Cumulative cuckoo BFS node expansions across all inserts. *)

val sram_bits : t -> int
(** Provisioned (capacity-based) SRAM footprint with word packing. *)

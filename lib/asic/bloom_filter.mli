(** A Bloom filter over the ASIC's transactional register array.

    SilkRoad's TransitTable is "a simple bloom filter ... built on
    commonly available transactional memory" (§4.3): [k] hash functions
    address a bit array; insertion sets the bits in one transactional
    pass, membership tests them. There are no false negatives; false
    positives occur when every probed bit was set by other keys.

    Keys are supplied pre-hashed as 64-bit values; the filter derives its
    [k] probe indices from an internal hash family, so callers hash the
    5-tuple exactly once. *)

type t

val create : ?seed:int -> ?metrics:Telemetry.Registry.t -> bits:int -> hashes:int -> unit -> t
(** [create ~bits ~hashes ()] is an empty filter of [bits] bits (must be
    positive) probed by [hashes] functions (1..16). A 256-byte
    TransitTable is [create ~bits:2048 ~hashes:2 ()]. [?metrics] is the
    registry the filter reports through: [bloom.adds] and [bloom.clears]
    counters and a [bloom.fill_ratio] gauge. *)

val bits : t -> int

val add : t -> int64 -> unit
val mem : t -> int64 -> bool

val add_halves : t -> hi:int -> lo:int -> unit
(** [add] of the key whose unsigned high and low 32 bits are [hi] and
    [lo] (as {!Netcore.Five_tuple.hash_hi}/[hash_lo] give them): the
    same bits, set without boxing an int64. *)

val mem_halves : t -> hi:int -> lo:int -> bool
(** [mem] of the key given as its halves, as {!add_halves}. *)

val clear : t -> unit

val population : t -> int
(** Number of set bits. *)

val false_positive_probability : t -> float
[@@silkroad.allow "surface.unused-export: the analytic rate test_asic compares the measured false-positive rate with"]
(** Probability that a fresh uniformly-hashed key would falsely hit,
    given the current fill ratio: [fill_ratio ^ hashes]. *)


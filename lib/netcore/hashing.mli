(** Deterministic hash primitives modelled after the generic hash units of
    a switching ASIC.

    Switching ASICs expose a set of independent hardware hash units (used
    for ECMP, LAG, learning filters, cuckoo stages, ...). We model them as
    a family of 64-bit mixing functions parameterised by a seed: two
    different seeds give (statistically) independent functions, which is
    what the multi-stage cuckoo table and the Bloom filter rely on.

    All functions here are pure and deterministic across runs, which keeps
    every simulation reproducible. *)

val mix64 : int64 -> int64
(** A strong 64-bit finalizer (splitmix64 / murmur3-style avalanche). *)

val seeded : seed:int -> int64 -> int64
(** [seeded ~seed x] applies a seed-keyed mix: functions with different
    seeds behave as independent hash functions. *)

val to_range : int64 -> int -> int
(** [to_range h n] maps a hash value uniformly onto [0, n). [n] must be
    positive. *)

val truncate_bits : int64 -> int -> int
(** [truncate_bits h k] keeps the low [k] bits of [h] (the hardware
    "digest" extraction). [0 < k <= 30]. *)

val of_halves : int -> int -> int64
(** [of_halves hi lo] is [logor (shift_left hi 32) lo]: the int64 whose
    unsigned high and low 32 bits are [hi] and [lo]. [of_halves 0 i] is
    [Int64.of_int i] for any int [i]. *)

val seeded_above : seed:int -> hi:int -> lo:int -> a:int -> b:int -> bool
(** Whether [seeded ~seed:a h] is above [seeded ~seed:b h] in unsigned
    64-bit order, for [h = seeded ~seed (of_halves hi lo)]: rendezvous
    hashing's comparison of two nodes' scores for one key. *)

type family
(** A family of independent hash functions [h_0 ... h_{k-1}]. *)

val family : seed:int -> family
val apply : family -> int -> int64 -> int64
(** [apply fam i x] is the i-th function of the family applied to [x]. *)

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
[@@silkroad.allow "surface.unused-export: test_netcore pins Five_tuple.bits, the cached digest chain, against the plain truncation"]
(** [truncate_bits h k] keeps the low [k] bits of [h] (the hardware
    "digest" extraction). [0 < k <= 30]. *)

val seeded_range : seed:int -> hi:int -> lo:int -> int -> int
(** [seeded_range ~seed ~hi ~lo n] is [to_range (seeded ~seed x) n] for
    [x = logor (shift_left hi 32) lo]. Splitting an int64 into its
    unsigned high and low 32 bits gives halves that rebuild it; [~hi:0]
    takes any int [i] as [lo] and gives [x = Int64.of_int i]. Computed
    without boxing anything: the int64 steps stay inside this module,
    so callers elsewhere allocate nothing. *)

val seeded_bits : seed:int -> hi:int -> lo:int -> int -> int
(** [seeded_bits ~seed ~hi ~lo k] is [truncate_bits (seeded ~seed x) k]
    for the same [x] as {!seeded_range}, and as allocation-free. *)

type family
(** A family of independent hash functions [h_0 ... h_{k-1}]. *)

val family : seed:int -> family
val apply : family -> int -> int64 -> int64
(** [apply fam i x] is the i-th function of the family applied to [x]. *)

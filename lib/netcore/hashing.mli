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
[@@silkroad.allow "surface.unused-export: the int64 reference test_netcore checks seeded_halves, seeded_above and Five_tuple.hash against; the program calls its int-only forms"]
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

val seeded_halves : seed:int -> hi:int -> lo:int -> int64
(** [seeded_halves ~seed ~hi ~lo] is [seeded ~seed x] for the same [x]
    as {!seeded_range}. The key is never boxed; the result's box is the
    call's only allocation. *)

val seeded_hi : seed:int -> hi:int -> lo:int -> int
(** The unsigned high 32 bits of [seeded_halves ~seed ~hi ~lo], as an
    int: with {!seeded_lo}, the halves that {!apply_range} takes back,
    so the int64 is never boxed. *)

val seeded_lo : seed:int -> hi:int -> lo:int -> int
(** The unsigned low 32 bits of [seeded_halves ~seed ~hi ~lo]. *)

val seeded_above : seed:int -> hi:int -> lo:int -> a:int -> b:int -> bool
(** Whether [seeded ~seed:a h] is above [seeded ~seed:b h] in unsigned
    64-bit order, for [h = seeded_halves ~seed ~hi ~lo]: rendezvous
    hashing's comparison of two nodes' scores for one key, with no
    int64 leaving this module. *)

type family
(** A family of independent hash functions [h_0 ... h_{k-1}]. *)

val family : seed:int -> family
val apply : family -> int -> int64 -> int64
[@@silkroad.allow "surface.unused-export: the int64 reference test_netcore checks apply_range against; the Bloom filter calls apply_range"]
(** [apply fam i x] is the i-th function of the family applied to [x]. *)

val apply_range : family -> int -> hi:int -> lo:int -> int -> int
(** [apply_range fam i ~hi ~lo n] is [to_range (apply fam i x) n] for
    [x] rebuilt from its halves as in {!seeded_range}; allocation-free. *)

(** Maglev consistent hashing (Eisenbud et al., NSDI'16 — reference [20]
    of the paper).

    Builds a fixed-size lookup table from per-backend permutations so
    that (a) load spreads near-uniformly and (b) a membership change
    remaps only a small fraction of the table. Provided as an ablation
    alternative to plain ECMP selection for VIPTable: with consistent
    hashing, a DIP change breaks far fewer connections even without any
    connection state. *)

type t

val create : Netcore.Endpoint.t list -> t
(** A lookup table of 65537 slots (a prime, Maglev's default size).
    Raises [Invalid_argument] on an empty backend list or one with as
    many backends as slots. *)

val lookup : t -> int64 -> Netcore.Endpoint.t
(** Select a backend from a packet hash. *)

val table_size : t -> int
[@@silkroad.allow "surface.unused-export: test_baselines checks Maglev's balance across the lookup table"]

val entries_of : t -> Netcore.Endpoint.t -> int
[@@silkroad.allow "surface.unused-export: test_baselines checks Maglev's balance across the lookup table"]
(** Number of table slots owned by the backend (for load-spread tests). *)

val disruption : t -> t -> float
[@@silkroad.allow "surface.unused-export: test_baselines checks Maglev's minimal disruption on a backend removal"]
(** Fraction of table slots whose owner differs between two tables —
    the fraction of stateless flows a membership change would remap. *)

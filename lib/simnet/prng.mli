(** Deterministic pseudo-random number generator (splitmix64).

    Every experiment in the repository is seeded, so results are
    reproducible run to run. The generator is splittable: {!split}
    derives an independent stream, which lets concurrent generators
    (per-VIP workloads, per-cluster traces) draw without interfering. *)

type t

val create : seed:int -> t
val split : t -> t
(** An independent child stream; the parent advances by one draw. *)

val copy : t -> t

val int64 : t -> int64
(** The next 64 uniform bits. *)

val int : t -> int -> int
(** [int t n] is uniform on [0, n). [n > 0]. *)

val float : t -> float -> float
(** [float t x] is uniform on [0, x). *)

val uniform : t -> float
(** Uniform on [0, 1) — never exactly 1. *)

val bool : t -> bool

val exponential : t -> mean:float -> float
(** Exponentially distributed with the given mean. *)

val normal : t -> float
(** Standard normal (Box–Muller). *)

val choose : t -> 'a array -> 'a
(** Uniform choice from a non-empty array. *)

val choose_weighted : t -> ('a * float) list -> 'a
(** Choice proportional to the (positive) weights. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

(** Transactional register arrays.

    Switching ASICs expose arrays of small registers (used for counters
    and meters) with packet-transactional semantics: a
    read-check-modify-write completes in one clock cycle, so the update
    made for one packet is visible to the very next packet (§4.1). This
    is the primitive SilkRoad builds its TransitTable Bloom filter on.

    Values are masked to the register width on every write. *)

type t

val create : ?name:string -> width_bits:int -> size:int -> unit -> t
(** [create ~width_bits ~size ()] allocates [size] registers of
    [width_bits] bits each, all zero. [1 <= width_bits <= 62]. *)

val read : t -> int -> int
val write : t -> int -> int -> unit

val clear : t -> unit

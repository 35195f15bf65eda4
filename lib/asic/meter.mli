(** Two-rate three-color marker (RFC 4115), the ASIC's rate limiter.

    SilkRoad attaches a meter to each VIP for performance isolation:
    packets are marked Green (within committed rate), Yellow (within
    excess rate) or Red (dropped) by two token buckets refilled at the
    committed and excess information rates (§5.2). *)

type color =
  | Green
  | Yellow
  | Red

type t

val create : cir:float -> cbs:int -> eir:float -> ebs:int -> t
(** [cir]/[eir] in bytes per second; [cbs]/[ebs] burst sizes in bytes.
    Buckets start full. *)

val mark : t -> now:float -> bytes:int -> color
(** Mark a packet of [bytes] arriving at [now], taking its tokens from
    the first bucket that holds enough. Seconds may not go backwards
    between calls. *)

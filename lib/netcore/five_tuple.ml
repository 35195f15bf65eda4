type t = {
  src : Endpoint.t;
  dst : Endpoint.t;
  proto : Protocol.t;
  pre_hi : int;
  pre_lo : int;
}

(* The seed-independent part of every seeded hash of the tuple: folded
   once here, so a per-packet consumer pays only the final seeded mix. *)
let prehash ~src ~dst ~proto =
  let acc = Endpoint.hash_fold 0x5117_0a4dL src in
  let acc = Endpoint.hash_fold acc dst in
  Hashing.mix64 (Int64.logxor acc (Int64.of_int (Protocol.to_byte proto)))

(* The fold is stored as its unsigned 32-bit halves, in the tuple's own
   block: an int64 field would point to a box in another size-class
   pool, one more cache miss per hash. *)
let make ~src ~dst ~proto =
  let pre = prehash ~src ~dst ~proto in
  {
    src;
    dst;
    proto;
    pre_hi = Int64.to_int (Int64.shift_right_logical pre 32);
    pre_lo = Int64.to_int (Int64.logand pre 0xffff_ffffL);
  }

let compare a b =
  let c = Endpoint.compare a.src b.src in
  if c <> 0 then c
  else
    let c = Endpoint.compare a.dst b.dst in
    if c <> 0 then c else Protocol.compare a.proto b.proto

(* Physical equality first: the switch's tables are probed with the very
   tuple that was stored. Equal tuples have equal folds, so comparing
   the two halves settles most unequal pairs without walking the
   endpoints. *)
let equal a b = a == b || (a.pre_lo = b.pre_lo && a.pre_hi = b.pre_hi && compare a b = 0)

(* Inlined into its callers, here and in other modules, so neither the
   rebuilt fold nor the result is boxed: [range] and [bits] are one
   unboxed chain that returns an int. *)
let[@inline] hash ~seed t = Hashing.seeded ~seed (Hashing.of_halves t.pre_hi t.pre_lo)
let range ~seed t n = Hashing.to_range (hash ~seed t) n
let bits ~seed t k = Hashing.truncate_bits (hash ~seed t) k

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal

  (* the fold's low 63 bits: [Int64.to_int] of the int64 fold *)
  let hash t = (t.pre_hi lsl 32) lor t.pre_lo
end)

let is_v6 { dst = { ip; _ }; _ } = Ip.is_v6 ip

let pp ppf { src; dst; proto; pre_hi = _; pre_lo = _ } =
  Format.fprintf ppf "%a->%a/%a" Endpoint.pp src Endpoint.pp dst Protocol.pp proto

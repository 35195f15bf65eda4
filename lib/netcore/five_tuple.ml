type t = {
  src : Endpoint.t;
  dst : Endpoint.t;
  proto : Protocol.t;
  pre : int64;
}

(* The seed-independent part of every seeded hash of the tuple: folded
   once here, so a per-packet consumer pays only the final seeded mix. *)
let prehash ~src ~dst ~proto =
  let acc = Endpoint.hash_fold 0x5117_0a4dL src in
  let acc = Endpoint.hash_fold acc dst in
  Hashing.mix64 (Int64.logxor acc (Int64.of_int (Protocol.to_byte proto)))

let make ~src ~dst ~proto = { src; dst; proto; pre = prehash ~src ~dst ~proto }

let compare a b =
  let c = Endpoint.compare a.src b.src in
  if c <> 0 then c
  else
    let c = Endpoint.compare a.dst b.dst in
    if c <> 0 then c else Protocol.compare a.proto b.proto

(* Physical equality first: the switch's tables are probed with the very
   tuple that was stored. Equal tuples have equal [pre], so a [pre]
   mismatch settles most unequal pairs without walking the endpoints. *)
let equal a b = a == b || (Int64.equal a.pre b.pre && compare a b = 0)

let hash ~seed t = Hashing.seeded ~seed t.pre

(* [Hashing.seeded_range]/[seeded_bits] keep the int64 chain inside
   [Hashing]: under [-opaque] nothing is inlined across modules, so
   composing [hash] with [to_range] here would box the result. *)
let range ~seed t n = Hashing.seeded_range ~seed t.pre n
let bits ~seed t k = Hashing.seeded_bits ~seed t.pre k

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash t = Int64.to_int t.pre
end)

let key_bytes { src; dst; proto = _; pre = _ } =
  Endpoint.size_bytes src + Endpoint.size_bytes dst + 1

let is_v6 { dst = { ip; _ }; _ } = Ip.is_v6 ip

let pp ppf { src; dst; proto; pre = _ } =
  Format.fprintf ppf "%a->%a/%a" Endpoint.pp src Endpoint.pp dst Protocol.pp proto

let to_string t = Format.asprintf "%a" pp t

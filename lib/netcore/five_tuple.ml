type t = {
  src : Endpoint.t;
  dst : Endpoint.t;
  proto : Protocol.t;
}

let make ~src ~dst ~proto = { src; dst; proto }

let compare a b =
  let c = Endpoint.compare a.src b.src in
  if c <> 0 then c
  else
    let c = Endpoint.compare a.dst b.dst in
    if c <> 0 then c else Protocol.compare a.proto b.proto

let equal a b = compare a b = 0

(* [@inline] so callers outside the Cuckoo functor (whose [Key.hash]
   parameter can never be inlined) get the whole Int64 chain unboxed. *)
let[@inline] hash ~seed { src; dst; proto } =
  let acc = Endpoint.hash_fold 0x5117_0a4dL src in
  let acc = Endpoint.hash_fold acc dst in
  let acc = Hashing.mix64 (Int64.logxor acc (Int64.of_int (Protocol.to_byte proto))) in
  Hashing.seeded ~seed acc

let digest ~bits ~seed t = Hashing.truncate_bits (hash ~seed t) bits

let key_bytes { src; dst; proto = _ } =
  Endpoint.size_bytes src + Endpoint.size_bytes dst + 1

let is_v6 { dst = { ip; _ }; _ } = Ip.is_v6 ip

let pp ppf { src; dst; proto } =
  Format.fprintf ppf "%a->%a/%a" Endpoint.pp src Endpoint.pp dst Protocol.pp proto

let to_string t = Format.asprintf "%a" pp t

type t = {
  ip : Ip.t;
  port : int;
}

let make ip port =
  assert (port >= 0 && port < 65536);
  { ip; port }

let v4 a b c d port = make (Ip.v4 a b c d) port

(* A physically unique record: allocation-free code paths return [none]
   instead of [Endpoint.t option] and callers test with [==]. Never use
   structural equality against it — 0.0.0.0:0 is a legal (if useless)
   endpoint value. *)
let none = { ip = Ip.v4 0 0 0 0; port = 0 }

let compare a b =
  let c = Ip.compare a.ip b.ip in
  if c <> 0 then c else Int.compare a.port b.port

let equal a b = compare a b = 0

let[@inline] hash_fold acc { ip; port } =
  Hashing.mix64 (Int64.logxor (Ip.hash_fold acc ip) (Int64.of_int port))

let size_bytes { ip; port = _ } = Ip.family_bytes ip + 2

(* Multiply-xorshift over the unboxed address words and the port: plain
   int arithmetic, so a lookup allocates nothing and never walks the
   record generically as [Hashtbl.hash] does. *)
let[@inline] mix h =
  let h = h * 0x2545f4914f6cdd1d in
  h lxor (h lsr 29)

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal

  let hash { ip; port } =
    let a =
      match ip with
      | Ip.V4 x -> Int32.to_int x
      | Ip.V6 (h, l) -> mix (Int64.to_int h) lxor Int64.to_int l
    in
    mix (mix a lxor port) land max_int
end)

let pp ppf { ip; port } =
  if Ip.is_v6 ip then Format.fprintf ppf "[%a]:%d" Ip.pp ip port
  else Format.fprintf ppf "%a:%d" Ip.pp ip port

let to_string t = Format.asprintf "%a" pp t

let of_string s =
  let parse_port p = int_of_string_opt p in
  if String.length s > 0 && s.[0] = '[' then
    match String.index_opt s ']' with
    | Some i when i + 1 < String.length s && s.[i + 1] = ':' ->
      let addr = String.sub s 1 (i - 1) in
      let port = String.sub s (i + 2) (String.length s - i - 2) in
      (match Ip.of_string addr, parse_port port with
       | Some ip, Some p when p >= 0 && p < 65536 -> Some (make ip p)
       | _, _ -> None)
    | Some _ | None -> None
  else
    match String.rindex_opt s ':' with
    | None -> None
    | Some i ->
      let addr = String.sub s 0 i in
      let port = String.sub s (i + 1) (String.length s - i - 1) in
      (match Ip.of_string addr, parse_port port with
       | Some ip, Some p when p >= 0 && p < 65536 -> Some (make ip p)
       | _, _ -> None)

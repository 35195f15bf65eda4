type t = {
  flow : Five_tuple.t;
  flags : Tcp_flags.t;
  payload_len : int;
}

let make ?(flags = Tcp_flags.data) ?(payload_len = 0) flow =
  assert (payload_len >= 0);
  { flow; flags; payload_len }

let syn flow = make ~flags:Tcp_flags.syn ~payload_len:0 flow
let fin flow = make ~flags:Tcp_flags.fin ~payload_len:0 flow
let data ?(payload_len = 1024) flow = make ~flags:Tcp_flags.data ~payload_len flow

(* Wire size without a packet record in hand — the batched replay path
   meters flows it never boxes into [t]. *)
let wire_size_of ~payload_len flow =
  let eth = 14 in
  let ip = if Five_tuple.is_v6 flow then 40 else 20 in
  let l4 = match flow.Five_tuple.proto with Protocol.Tcp -> 20 | Protocol.Udp -> 8 in
  eth + ip + l4 + payload_len

let wire_size { flow; flags = _; payload_len } = wire_size_of ~payload_len flow

(* through [make], so the rewritten tuple carries its own cached hash *)
let rewrite_dst t dip =
  let { Five_tuple.src; proto; _ } = t.flow in
  { t with flow = Five_tuple.make ~src ~dst:dip ~proto }

let pp ppf { flow; flags; payload_len } =
  Format.fprintf ppf "%a [%a] %dB" Five_tuple.pp flow Tcp_flags.pp flags payload_len

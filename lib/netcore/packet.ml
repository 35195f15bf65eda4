type t = {
  flow : Five_tuple.t;
  flags : Tcp_flags.t;
  payload_len : int;
}

let make ?(flags = Tcp_flags.data) ?(payload_len = 0) flow =
  assert (payload_len >= 0);
  { flow; flags; payload_len }

let syn flow = make ~flags:Tcp_flags.syn ~payload_len:0 flow
let data flow = make ~flags:Tcp_flags.data ~payload_len:1024 flow

(* Wire size without a packet record in hand, for the switch's
   per-packet path, which the replay engines never hand a [t] *)
let wire_size_of ~payload_len flow =
  let eth = 14 in
  let ip = if Five_tuple.is_v6 flow then 40 else 20 in
  let l4 = match flow.Five_tuple.proto with Protocol.Tcp -> 20 | Protocol.Udp -> 8 in
  eth + ip + l4 + payload_len

let wire_size { flow; flags = _; payload_len } = wire_size_of ~payload_len flow

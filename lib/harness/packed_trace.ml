(* Flat pre-encoded packet traces: one float per packet time, one int
   per flow index, one byte per flag set, all in time-sorted arrays.
   This is the one packet schedule of the library: the experiment
   driver and the replay engine both walk it with a single cursor, so
   tie order is fixed here — equal-time packets keep flow-major
   emission order. *)

type t = {
  horizon : float;
  vips : Netcore.Endpoint.t array;
  flow_ids : int array;
  flow_vip : int array;  (** per flow: index into [vips] *)
  flow_tuples : Netcore.Five_tuple.t array;
  times : float array;  (** per packet, sorted (ties: emission order) *)
  pkt_flow : int array;  (** per packet: index into the flow arrays *)
  pkt_flags : Bytes.t;  (** per packet: [Tcp_flags.to_byte] *)
}

let n_flows t = Array.length t.flow_ids
let n_packets t = Array.length t.times

let dummy_tuple =
  Netcore.Five_tuple.make ~src:Netcore.Endpoint.none ~dst:Netcore.Endpoint.none
    ~proto:Netcore.Protocol.Tcp

let default_early = [ 250e-6; 1e-3; 5e-3; 20e-3; 0.1 ]

(* The packet train of one flow, as (time, flags) pairs in strictly
   increasing time order: SYN at start, early + steady data probes, FIN
   when the flow ends inside the horizon. *)
let probe_points ~early_offsets ~probe_interval ~horizon (flow : Simnet.Flow.t) =
  let start = flow.Simnet.Flow.start in
  let finish = Float.min (Simnet.Flow.finish flow) horizon in
  if start >= horizon then []
  else begin
    let times = ref [] in
    List.iter
      (fun off ->
        let at = start +. off in
        if at < finish then times := at :: !times)
      early_offsets;
    let rec steady at =
      if at < finish then begin
        times := at :: !times;
        steady (at +. probe_interval)
      end
    in
    steady (start +. probe_interval);
    let times = List.sort_uniq Float.compare !times in
    let pts =
      (start, Netcore.Tcp_flags.syn)
      :: List.map (fun at -> (at, Netcore.Tcp_flags.data)) times
    in
    if Simnet.Flow.finish flow < horizon then
      pts @ [ (Simnet.Flow.finish flow, Netcore.Tcp_flags.fin) ]
    else pts
  end

(* A stable sort on time alone: indices start in emission order, and
   stability keeps that order among equal times. *)
let time_order times =
  let order = Array.init (Array.length times) (fun i -> i) in
  Array.stable_sort (fun a b -> Float.compare times.(a) times.(b)) order;
  order

let compile ?(early_offsets = default_early) ?(probe_interval = 15.) ~horizon flows =
  let kept =
    List.filter_map
      (fun f ->
        match probe_points ~early_offsets ~probe_interval ~horizon f with
        | [] -> None
        | pts -> Some (f, pts))
      flows
  in
  let n_flows = List.length kept in
  let vip_index = Hashtbl.create 16 in
  let vips_rev = ref [] in
  let n_vips = ref 0 in
  let vip_idx vip =
    match Hashtbl.find_opt vip_index vip with
    | Some i -> i
    | None ->
      let i = !n_vips in
      Hashtbl.replace vip_index vip i;
      vips_rev := vip :: !vips_rev;
      incr n_vips;
      i
  in
  let flow_ids = Array.make n_flows 0 in
  let flow_vip = Array.make n_flows 0 in
  let flow_tuples = Array.make n_flows dummy_tuple in
  let total = List.fold_left (fun acc (_, pts) -> acc + List.length pts) 0 kept in
  let raw_times = Array.make total 0. in
  let raw_flow = Array.make total 0 in
  let raw_flags = Bytes.create total in
  let p = ref 0 in
  List.iteri
    (fun fi ((flow : Simnet.Flow.t), pts) ->
      flow_ids.(fi) <- flow.Simnet.Flow.id;
      flow_tuples.(fi) <- flow.Simnet.Flow.tuple;
      flow_vip.(fi) <- vip_idx flow.Simnet.Flow.tuple.Netcore.Five_tuple.dst;
      List.iter
        (fun (at, flags) ->
          raw_times.(!p) <- at;
          raw_flow.(!p) <- fi;
          Bytes.set raw_flags !p (Char.chr (Netcore.Tcp_flags.to_byte flags));
          incr p)
        pts)
    kept;
  (* flows in list order, so emission order is the tie order *)
  let order = time_order raw_times in
  let times = Array.make total 0. in
  let pkt_flow = Array.make total 0 in
  let pkt_flags = Bytes.create total in
  Array.iteri
    (fun i src ->
      times.(i) <- raw_times.(src);
      pkt_flow.(i) <- raw_flow.(src);
      Bytes.set pkt_flags i (Bytes.get raw_flags src))
    order;
  {
    horizon;
    vips = Array.of_list (List.rev !vips_rev);
    flow_ids;
    flow_vip;
    flow_tuples;
    times;
    pkt_flow;
    pkt_flags;
  }

(* ----- shard partitioning ----- *)

type partition = {
  pt_shards : int;
  sh_times : float array array;
  sh_flows : Netcore.Five_tuple.t array array;
  sh_flags : Netcore.Tcp_flags.t array array;
  sh_pflow : int array array;
}

(* Counting-sort gather: two linear passes over the packet arrays, one
   contiguous sub-trace per shard. Within a shard, packets keep the
   global (time, emission) order — the per-shard streams are exactly the
   subsequences a per-shard switch would have seen in a scalar run. *)
let partition t ~shards ~shard_of =
  if shards < 1 then invalid_arg "Packed_trace.partition: shards must be >= 1";
  let n_flows = Array.length t.flow_ids in
  let n_pkts = Array.length t.times in
  let flow_shard = Array.init n_flows (fun i -> shard_of t.flow_tuples.(i)) in
  Array.iter
    (fun k ->
      if k < 0 || k >= shards then invalid_arg "Packed_trace.partition: shard_of out of range")
    flow_shard;
  (* decode flag bytes once: 6 TCP flag bits -> 64 possible sets *)
  let flags_tab = Array.init 64 Netcore.Tcp_flags.of_byte in
  let counts = Array.make shards 0 in
  for p = 0 to n_pkts - 1 do
    let k = flow_shard.(t.pkt_flow.(p)) in
    counts.(k) <- counts.(k) + 1
  done;
  let sh_times = Array.init shards (fun k -> Array.make counts.(k) 0.) in
  let sh_flows = Array.init shards (fun k -> Array.make counts.(k) dummy_tuple) in
  let sh_flags = Array.init shards (fun k -> Array.make counts.(k) Netcore.Tcp_flags.data) in
  let sh_pflow = Array.init shards (fun k -> Array.make counts.(k) 0) in
  let fill = Array.make shards 0 in
  for p = 0 to n_pkts - 1 do
    let fi = t.pkt_flow.(p) in
    let k = flow_shard.(fi) in
    let j = fill.(k) in
    fill.(k) <- j + 1;
    sh_times.(k).(j) <- t.times.(p);
    sh_flows.(k).(j) <- t.flow_tuples.(fi);
    sh_flags.(k).(j) <- flags_tab.(Char.code (Bytes.get t.pkt_flags p));
    sh_pflow.(k).(j) <- fi
  done;
  { pt_shards = shards; sh_times; sh_flows; sh_flags; sh_pflow }

(* Flat pre-encoded packet traces: one float per packet time, one int
   per flow index, one byte per flag set, all in time-sorted arrays.
   This is the one packet schedule of the library: Replay.Stepper, the
   loop the experiment driver and the replay engine both run on, walks
   it with a single cursor, so tie order is fixed here — equal-time
   packets keep flow-major emission order. *)

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

(* ----- ordering ----- *)

(* A time's sort key is its IEEE-754 bit pattern, which for finite
   times >= 0 orders as the times do. The sign bit is 0, so the pattern
   fits an OCaml int; [Int64.to_int] drops that bit, so -0.0 keys as
   +0.0 and the two tie. Six 11-bit digits cover its 63 bits. A pass
   scatters to 2048 buckets, whose write positions stay cache- and
   TLB-resident; 16-bit digits (four passes, 65536 buckets) were ~20%
   faster at ~1M packets but ~20% slower at 1M-5M connections (8M-38M
   packets). *)
let digit_bits = 11
let radix = 1 lsl digit_bits
let n_digits = 6

(* Stable LSD radix sort of [payload] by [keys] (equal lengths, keys
   >= 0), one digit a pass; returns the sorted pair of arrays, which
   may be the inputs reused. One histogram pass counts every digit at
   once. Each pass is a stable counting scatter, so equal keys keep their
   input order. Keys and payloads move together, so every read is
   sequential. *)
let radix_sort keys payload =
  let n = Array.length keys in
  let counts = Array.make (n_digits * radix) 0 in
  for i = 0 to n - 1 do
    let k = Array.unsafe_get keys i in
    for d = 0 to n_digits - 1 do
      let c = (d * radix) + ((k lsr (d * digit_bits)) land (radix - 1)) in
      Array.unsafe_set counts c (Array.unsafe_get counts c + 1)
    done
  done;
  let src_k = ref keys and src_p = ref payload in
  let dst_k = ref (Array.make n 0) and dst_p = ref (Array.make n 0) in
  for d = 0 to n_digits - 1 do
    let base = d * radix and shift = d * digit_bits in
    (* bucket counts -> first output slot of each bucket *)
    let pos = ref 0 in
    for b = base to base + radix - 1 do
      let c = counts.(b) in
      counts.(b) <- !pos;
      pos := !pos + c
    done;
    let sk = !src_k and sp = !src_p and dk = !dst_k and dp = !dst_p in
    for j = 0 to n - 1 do
      let k = Array.unsafe_get sk j in
      let b = base + ((k lsr shift) land (radix - 1)) in
      let at = Array.unsafe_get counts b in
      Array.unsafe_set dk at k;
      Array.unsafe_set dp at (Array.unsafe_get sp j);
      Array.unsafe_set counts b (at + 1)
    done;
    src_k := dk;
    src_p := dp;
    dst_k := sk;
    dst_p := sp
  done;
  (!src_k, !src_p)

let time_order times =
  let key i =
    let x = times.(i) in
    if x >= 0. && x <= Float.max_float then Int64.to_int (Int64.bits_of_float x)
    else invalid_arg "Packed_trace.time_order: times must be finite and >= 0"
  in
  let n = Array.length times in
  snd (radix_sort (Array.init n key) (Array.init n (fun i -> i)))

(* ----- compiling ----- *)

(* While sorting, a packet's payload packs its flow index, whether its
   time is -0.0 (its key cannot tell) and its flag byte. *)
let neg_zero_bit = 0x100
let flow_shift = 9

let syn_byte = Netcore.Tcp_flags.to_byte Netcore.Tcp_flags.syn
let data_byte = Netcore.Tcp_flags.to_byte Netcore.Tcp_flags.data
let fin_byte = Netcore.Tcp_flags.to_byte Netcore.Tcp_flags.fin

(* Emit one flow's packets at [p] in emission order as (key, payload)
   pairs, or only count them when [keys] is empty; returns the next
   free slot. The train is a SYN at the start, then the merge of the
   early probes (start + each of the sorted, distinct [early] offsets)
   with the steady chain (start + interval, + interval, ...), both
   kept while before [finish] and with equal times emitted once, then
   a FIN at the flow's end when that is before the horizon. Every time
   is finite and >= 0 (or -0.0) once {!check_flow} has passed, and
   written without being boxed. *)
let emit_train ~early ~probe_interval ~horizon ~keys ~payload fi (flow : Simnet.Flow.t) p =
  let write = Array.length keys > 0 in
  let start = flow.Simnet.Flow.start in
  let fin = Simnet.Flow.finish flow in
  let finish = Float.min fin horizon in
  let tag = fi lsl flow_shift in
  if write then begin
    keys.(p) <- Int64.to_int (Int64.bits_of_float start);
    payload.(p) <- tag lor (if Float.sign_bit start then neg_zero_bit else 0) lor syn_byte
  end;
  let p = ref (p + 1) in
  let n_early = Array.length early in
  let e = ref 0 and steady = ref (start +. probe_interval) and last = ref Float.neg_infinity in
  let live = ref true in
  while !live do
    let early_at = if !e < n_early then start +. early.(!e) else Float.infinity in
    let early_ok = early_at < finish and steady_ok = !steady < finish in
    if early_ok || steady_ok then begin
      let at =
        if early_ok && ((not steady_ok) || early_at <= !steady) then begin
          incr e;
          early_at
        end
        else begin
          let at = !steady in
          let next = at +. probe_interval in
          if next <= at then
            invalid_arg "Packed_trace.compile: probe_interval too small to advance a flow's time";
          steady := next;
          at
        end
      in
      (* at > 0: start >= 0 plus a positive offset *)
      if at > !last then begin
        if write then begin
          keys.(!p) <- Int64.to_int (Int64.bits_of_float at);
          payload.(!p) <- tag lor data_byte
        end;
        incr p;
        last := at
      end
    end
    else live := false
  done;
  if fin < horizon then begin
    if write then begin
      keys.(!p) <- Int64.to_int (Int64.bits_of_float fin);
      payload.(!p) <- tag lor (if Float.sign_bit fin then neg_zero_bit else 0) lor fin_byte
    end;
    incr p
  end;
  !p

let check_flow (flow : Simnet.Flow.t) =
  let start = flow.Simnet.Flow.start and duration = flow.Simnet.Flow.duration in
  if not (Float.is_finite start && start >= 0.) then
    invalid_arg "Packed_trace.compile: flow start must be finite and >= 0";
  if not (Float.is_finite duration && duration >= 0.) then
    invalid_arg "Packed_trace.compile: flow duration must be finite and >= 0"

(* The most packets a schedule may hold: 2^32, about 176 GB of arrays
   at 41 bytes a packet. Without a bound, a finite but huge lifetime
   (1e15 s at 15 s is ~7e13 steady probes) would keep the counting pass
   walking one chain for days, so every flow's steady count is
   estimated in O(1) from its lifetime before any chain is walked. A
   step of the chain advances at least half an interval (less rounds
   to no advance, which [emit_train] rejects), so the walk is at most
   about twice the estimate. *)
let max_packets = 1 lsl 32

let too_many () =
  invalid_arg
    "Packed_trace.compile: more than 2^32 packets (a flow lives too long for its probe_interval)"

let compile ?(early_offsets = default_early) ?(probe_interval = 15.) ~horizon flows =
  if not (Float.is_finite probe_interval && probe_interval > 0.) then
    invalid_arg "Packed_trace.compile: probe_interval must be finite and > 0";
  List.iter
    (fun off ->
      if not (Float.is_finite off && off > 0.) then
        invalid_arg "Packed_trace.compile: early offsets must be finite and > 0")
    early_offsets;
  let early = Array.of_list (List.sort_uniq Float.compare early_offsets) in
  let kept (f : Simnet.Flow.t) = not (f.Simnet.Flow.start >= horizon) in
  (* a first pass checks every flow and bounds the steady probes *)
  let estimate =
    List.fold_left
      (fun acc (f : Simnet.Flow.t) ->
        check_flow f;
        if kept f then
          let lifetime = Float.min (Simnet.Flow.finish f) horizon -. f.Simnet.Flow.start in
          acc +. (lifetime /. probe_interval)
        else acc)
      0. flows
  in
  if estimate > float_of_int max_packets then too_many ();
  (* a counting pass sizes the arrays exactly *)
  let n_flows = ref 0 and total = ref 0 in
  List.iter
    (fun f ->
      if kept f then begin
        incr n_flows;
        total := emit_train ~early ~probe_interval ~horizon ~keys:[||] ~payload:[||] 0 f !total;
        if !total > max_packets then too_many ()
      end)
    flows;
  let n_flows = !n_flows and total = !total in
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
  let keys = Array.make total 0 in
  let payload = Array.make total 0 in
  (* flows in list order, so emission order is the tie order *)
  let fi = ref 0 and p = ref 0 in
  List.iter
    (fun (flow : Simnet.Flow.t) ->
      if kept flow then begin
        let i = !fi in
        flow_ids.(i) <- flow.Simnet.Flow.id;
        flow_tuples.(i) <- flow.Simnet.Flow.tuple;
        flow_vip.(i) <- vip_idx flow.Simnet.Flow.tuple.Netcore.Five_tuple.dst;
        p := emit_train ~early ~probe_interval ~horizon ~keys ~payload i flow !p;
        fi := i + 1
      end)
    flows;
  let keys, payload = radix_sort keys payload in
  let times = Array.make total 0. in
  let pkt_flags = Bytes.create total in
  for i = 0 to total - 1 do
    let pl = payload.(i) in
    times.(i) <-
      (if pl land neg_zero_bit <> 0 then -0.
       else Int64.float_of_bits (Int64.logand (Int64.of_int keys.(i)) Int64.max_int));
    Bytes.unsafe_set pkt_flags i (Char.unsafe_chr (pl land 0xff));
    (* the payload array becomes [pkt_flow] in place *)
    payload.(i) <- pl lsr flow_shift
  done;
  {
    horizon;
    vips = Array.of_list (List.rev !vips_rev);
    flow_ids;
    flow_vip;
    flow_tuples;
    times;
    pkt_flow = payload;
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

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
  flow_rate : float array;  (** per flow: bytes per second *)
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

(* Packets are sorted by time alone, stably: equal times keep their
   emission order. The sort is a bucket sort in two levels. Times map
   linearly into at most [coarse_max] coarse buckets over the
   schedule's time span, so bucket order is time order; each packet is
   written straight into its bucket, and each bucket is then sorted in
   place while it sits in cache: a fine counting pass over the bucket's
   own span, then an insertion sort of each fine bucket. A fine bucket
   over [fine_max] packets (times clustered in a span the fine pass
   cannot split) falls back to an LSD radix sort, so equal or clustered
   times stay linear. 2048 coarse buckets, like one 11-bit radix digit,
   keep the scatter's write positions cache- and TLB-resident. *)
let coarse_max = 2048

(* at least this many packets a coarse bucket on average *)
let coarse_fill = 64
let fine_max = 64

(* The bucket of time [t] among [last + 1] buckets spanning [lo, lo +.
   (last + 1) /. scale]: monotone in [t], so bucket order is time
   order. The clamp is taken on the float, so a [scale] that overflowed
   to infinity (a subnormal span) puts every time in one bucket. *)
let[@inline] bucket ~lo ~scale ~last t =
  let x = (t -. lo) *. scale in
  if x < float_of_int last then int_of_float x else last

let[@inline] scale_of ~lo ~hi n = if hi -. lo > 0. then float_of_int n /. (hi -. lo) else 0.

let insertion_sort (times : float array) (payload : int array) a b =
  for i = a + 1 to b - 1 do
    let t = Array.unsafe_get times i and p = Array.unsafe_get payload i in
    let j = ref (i - 1) in
    while !j >= a && Array.unsafe_get times !j > t do
      Array.unsafe_set times (!j + 1) (Array.unsafe_get times !j);
      Array.unsafe_set payload (!j + 1) (Array.unsafe_get payload !j);
      decr j
    done;
    Array.unsafe_set times (!j + 1) t;
    Array.unsafe_set payload (!j + 1) p
  done

(* The fallback's key is a time's IEEE-754 bit pattern, which for
   finite times >= 0 orders as the times do. The sign bit is 0, so the
   pattern fits an OCaml int; [Int64.to_int] drops that bit, so -0.0
   keys as +0.0 and the two tie. Six 11-bit digits cover its 63 bits. *)
let digit_bits = 11
let radix = 1 lsl digit_bits
let n_digits = 6

(* Stable LSD radix sort of [payload] by [keys] (equal lengths, keys
   >= 0), one digit a pass; returns the sorted pair of arrays, which
   may be the inputs reused. One histogram pass counts every digit at
   once. Each pass is a stable counting scatter, so equal keys keep
   their input order. *)
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

(* Sort [a, b) of the pair by radix, through an index permutation so
   that the float times move unchanged (-0.0 included). *)
let radix_slice (times : float array) (payload : int array) a b =
  let m = b - a in
  let keys = Array.init m (fun i -> Int64.to_int (Int64.bits_of_float times.(a + i))) in
  let _, order = radix_sort keys (Array.init m Fun.id) in
  let ts = Array.sub times a m and ps = Array.sub payload a m in
  for i = 0 to m - 1 do
    times.(a + i) <- ts.(order.(i));
    payload.(a + i) <- ps.(order.(i))
  done

(* Sort [a, b) of the pair in place, stably, through the scratch [st],
   [sp] (at least [b - a] long) and [cnt] (one longer). *)
let sort_slice (times : float array) (payload : int array) ~(st : float array) ~sp ~cnt a b =
  let m = b - a in
  if m > 1 then begin
    let lo = ref times.(a) and hi = ref times.(a) in
    for i = a + 1 to b - 1 do
      let t = Array.unsafe_get times i in
      if t < !lo then lo := t;
      if t > !hi then hi := t
    done;
    (* all times equal: emission order is already the order *)
    if !lo < !hi then begin
      let lo = !lo and last = m - 1 in
      let scale = scale_of ~lo ~hi:!hi m in
      Array.fill cnt 0 (m + 1) 0;
      for i = a to b - 1 do
        let k = bucket ~lo ~scale ~last (Array.unsafe_get times i) + 1 in
        Array.unsafe_set cnt k (Array.unsafe_get cnt k + 1)
      done;
      (* cnt.(k): first slot of fine bucket k, then its next free slot *)
      for k = 1 to m do
        cnt.(k) <- cnt.(k) + cnt.(k - 1)
      done;
      for i = a to b - 1 do
        let t = Array.unsafe_get times i in
        let k = bucket ~lo ~scale ~last t in
        let j = Array.unsafe_get cnt k in
        Array.unsafe_set st j t;
        Array.unsafe_set sp j (Array.unsafe_get payload i);
        Array.unsafe_set cnt k (j + 1)
      done;
      (* fine bucket k now spans [cnt.(k - 1), cnt.(k)) *)
      let s = ref 0 in
      for k = 0 to last do
        let e = cnt.(k) in
        if e - !s > fine_max then radix_slice st sp !s e else insertion_sort st sp !s e;
        s := e
      done;
      Array.blit st 0 times a m;
      Array.blit sp 0 payload a m
    end
  end

(* Where packets go while the schedule is bucketed: in counting mode
   [cursor.(k)] counts coarse bucket [k]'s packets; in writing mode it
   is the bucket's next free slot in [times] and [payload]. *)
type sink = {
  count : bool;
  lo : float;
  scale : float;
  last : int;
  cursor : int array;
  times : float array;
  payload : int array;
}

(* A counting sink for about [packets] times in [lo, hi]. *)
let counting_sink ~packets ~lo ~hi =
  let n = Int.max 1 (Int.min coarse_max (packets / coarse_fill)) in
  {
    count = true;
    lo;
    scale = scale_of ~lo ~hi n;
    last = n - 1;
    cursor = Array.make n 0;
    times = [||];
    payload = [||];
  }

(* The same buckets in writing mode, sized for the counted packets. *)
let writing_sink s =
  let total = ref 0 in
  Array.iteri
    (fun k c ->
      s.cursor.(k) <- !total;
      total := !total + c)
    s.cursor;
  { s with count = false; times = Array.make !total 0.; payload = Array.make !total 0 }

(* One packet: kept a top-level function with explicit arguments so
   that [at] stays unboxed where it is inlined. *)
let[@inline] put s at pl =
  let k = bucket ~lo:s.lo ~scale:s.scale ~last:s.last at in
  let j = Array.unsafe_get s.cursor k in
  Array.unsafe_set s.cursor k (j + 1);
  if not s.count then begin
    Array.unsafe_set s.times j at;
    Array.unsafe_set s.payload j pl
  end

(* After the writing pass, [cursor.(k)] is the end of coarse bucket
   [k]: sort each bucket in place. *)
let sort_buckets s =
  let widest = ref 0 and start = ref 0 in
  Array.iter
    (fun e ->
      widest := Int.max !widest (e - !start);
      start := e)
    s.cursor;
  let w = !widest in
  let st = Array.make w 0. and sp = Array.make w 0 and cnt = Array.make (w + 1) 0 in
  let start = ref 0 in
  Array.iter
    (fun e ->
      sort_slice s.times s.payload ~st ~sp ~cnt !start e;
      start := e)
    s.cursor

let time_order times =
  let lo = ref Float.infinity and hi = ref Float.neg_infinity in
  Array.iter
    (fun x ->
      if not (x >= 0. && x <= Float.max_float) then
        invalid_arg "Packed_trace.time_order: times must be finite and >= 0";
      if x < !lo then lo := x;
      if x > !hi then hi := x)
    times;
  let n = Array.length times in
  let s = counting_sink ~packets:n ~lo:!lo ~hi:!hi in
  for i = 0 to n - 1 do
    put s times.(i) i
  done;
  let s = writing_sink s in
  for i = 0 to n - 1 do
    put s times.(i) i
  done;
  sort_buckets s;
  s.payload

(* ----- compiling ----- *)

(* While sorting, a packet's payload packs its flow index above its
   flag byte. *)
let flow_shift = 8

let syn_byte = Netcore.Tcp_flags.to_byte Netcore.Tcp_flags.syn
let data_byte = Netcore.Tcp_flags.to_byte Netcore.Tcp_flags.data
let fin_byte = Netcore.Tcp_flags.to_byte Netcore.Tcp_flags.fin

(* Put one flow's packets into [s] in emission order; returns how many.
   The train is a SYN at the start, then the merge of the early probes
   (start + each of the sorted, distinct [early] offsets) with the
   steady chain (start + interval, + interval, ...), both kept while
   before [finish] and with equal times emitted once, then a FIN at the
   flow's end when that is before the horizon. Every time is finite and
   >= 0 (or -0.0) once {!check_flow} has passed, and written without
   being boxed. *)
let emit_train ~early ~probe_interval ~horizon s fi (flow : Simnet.Flow.t) =
  let start = flow.Simnet.Flow.start in
  let fin = Simnet.Flow.finish flow in
  let finish = Float.min fin horizon in
  let tag = fi lsl flow_shift in
  put s start (tag lor syn_byte);
  let n = ref 1 in
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
        put s at (tag lor data_byte);
        incr n;
        last := at
      end
    end
    else live := false
  done;
  if fin < horizon then begin
    put s fin (tag lor fin_byte);
    incr n
  end;
  !n

let check_flow (flow : Simnet.Flow.t) =
  let start = flow.Simnet.Flow.start and duration = flow.Simnet.Flow.duration in
  if not (Float.is_finite start && start >= 0.) then
    invalid_arg "Packed_trace.compile: flow start must be finite and >= 0";
  if not (Float.is_finite duration && duration >= 0.) then
    invalid_arg "Packed_trace.compile: flow duration must be finite and >= 0"

(* The most packets a schedule may hold: 2^32, about 73 GB of output
   arrays at 17 bytes a packet. Without a bound, a finite but huge lifetime
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
  (* a first pass checks every flow, bounds the steady probes and finds
     the span every packet time lies in: from the earliest start to the
     latest [min finish horizon] *)
  let n_flows = ref 0 and estimate = ref 0. in
  let lo = ref Float.infinity and hi = ref Float.neg_infinity in
  (* a loop rather than a closure, so that the float refs stay unboxed *)
  let rest = ref flows and more = ref true in
  while !more do
    match !rest with
    | [] -> more := false
    | f :: tl ->
      rest := tl;
      check_flow f;
      if kept f then begin
        let start = f.Simnet.Flow.start in
        let finish = Float.min (start +. f.Simnet.Flow.duration) horizon in
        incr n_flows;
        estimate := !estimate +. ((finish -. start) /. probe_interval);
        if start < !lo then lo := start;
        if finish > !hi then hi := finish
      end
  done;
  if !estimate > float_of_int max_packets then too_many ();
  let n_flows = !n_flows in
  (* a counting pass sizes the arrays and the buckets exactly *)
  let s =
    counting_sink
      ~packets:(int_of_float !estimate + (n_flows * (2 + Array.length early)))
      ~lo:!lo ~hi:!hi
  in
  let total = ref 0 in
  List.iter
    (fun f ->
      if kept f then begin
        total := !total + emit_train ~early ~probe_interval ~horizon s 0 f;
        if !total > max_packets then too_many ()
      end)
    flows;
  let s = writing_sink s in
  let vip_index = Netcore.Endpoint.Tbl.create 16 in
  let vips_rev = ref [] in
  let vip_idx vip =
    match Netcore.Endpoint.Tbl.find_opt vip_index vip with
    | Some i -> i
    | None ->
      let i = Netcore.Endpoint.Tbl.length vip_index in
      Netcore.Endpoint.Tbl.replace vip_index vip i;
      vips_rev := vip :: !vips_rev;
      i
  in
  let flow_ids = Array.make n_flows 0 in
  let flow_vip = Array.make n_flows 0 in
  let flow_tuples = Array.make n_flows dummy_tuple in
  let flow_rate = Array.make n_flows 0. in
  (* flows in list order, so emission order is the tie order *)
  let fi = ref 0 in
  List.iter
    (fun (flow : Simnet.Flow.t) ->
      if kept flow then begin
        let i = !fi in
        flow_ids.(i) <- flow.Simnet.Flow.id;
        flow_tuples.(i) <- flow.Simnet.Flow.tuple;
        flow_vip.(i) <- vip_idx flow.Simnet.Flow.tuple.Netcore.Five_tuple.dst;
        flow_rate.(i) <- flow.Simnet.Flow.bytes_per_sec;
        ignore (emit_train ~early ~probe_interval ~horizon s i flow : int);
        fi := i + 1
      end)
    flows;
  sort_buckets s;
  let payload = s.payload in
  let pkt_flags = Bytes.create !total in
  for i = 0 to !total - 1 do
    let pl = Array.unsafe_get payload i in
    Bytes.unsafe_set pkt_flags i (Char.unsafe_chr (pl land 0xff));
    (* the payload array becomes [pkt_flow] in place *)
    Array.unsafe_set payload i (pl lsr flow_shift)
  done;
  {
    horizon;
    vips = Array.of_list (List.rev !vips_rev);
    flow_ids;
    flow_vip;
    flow_tuples;
    flow_rate;
    times = s.times;
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

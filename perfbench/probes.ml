(* Primitive probes: one public operation of each layer, timed in a
   tight loop over the workload's own 5-tuples.

   The tuples are the flows one switch of the workload owns (shard 0 of
   its hash partition; a quarter of the flows for the 4-ToR fabric).
   A fresh switch with the workload's configuration is driven through
   Replay.Stepper to the end of the arrival window and paused there, so
   ConnTable and DIPPoolTable hold the state the workload builds up;
   the filter, wheel and hashtable probes use the switch's own
   geometry. Each probe is the median of three passes, in ns per
   operation. *)

module Replay = Harness.Replay
module Packed_trace = Harness.Packed_trace
module Switch = Silkroad.Switch

type t = {
  occupancy : float;  (** ConnTable occupancy at the pause *)
  hit_ratio : float;  (** share of the shard's flows with an installed entry *)
  lookup_ns : float;  (** Conn_table.lookup_code *)
  insert_ns : float;  (** Conn_table.insert, filling a fresh table to the pause occupancy *)
  select_ns : float;  (** Dip_pool_table.select_dip_fast at the VIP's current version *)
  bloom_mem_ns : float;  (** Bloom_filter.mem on the TransitTable geometry *)
  offer_ns : float;  (** Learning_filter.offer, draining when full as the switch does *)
  schedule_ns : float;  (** Timer_wheel.schedule at the idle timeout *)
  wheel_advance_ns : float;  (** Timer_wheel.advance, one call per flow's worth of time *)
  hash_ns : float;  (** Five_tuple.hash *)
  hashtbl_find_ns : float;  (** Hashtbl.mem on a 5-tuple-keyed table of the shard's flows *)
}

let probe_shards (w : Workloads.t) =
  match w.Workloads.kind with
  | Workloads.Replay | Workloads.Serve -> 1
  | Workloads.Netwide -> 4

(* ns per op of [pass], which performs [n] ops on fresh state from
   [prepare] (untimed); median of three passes *)
let time_per_op ~n ~prepare pass =
  let once () =
    let st = prepare () in
    let t0 = Clock.now_ns () in
    pass st;
    float_of_int (Clock.now_ns () - t0) /. float_of_int (Int.max 1 n)
  in
  Clock.median [ once (); once (); once () ]

let run (w : Workloads.t) (inputs : Workloads.inputs) =
  let cfg = inputs.Workloads.cfg and trace = inputs.Workloads.trace in
  let shards = probe_shards w in
  let sh = Replay.Stepper.make_shared ~trace ~shards in
  let sw = Workloads.make_switch inputs () in
  let st = Replay.Stepper.create sh ~shard:0 ~batched:true sw in
  Replay.Stepper.flush_to st inputs.Workloads.arrivals_end;
  let tuples =
    Array.of_list
      (List.filter
         (fun t -> Replay.shard_of ~shards t = 0)
         (Array.to_list trace.Packed_trace.flow_tuples))
  in
  let n = Array.length tuples in
  let ct = Switch.conn_table sw in
  let installed =
    Array.of_list (List.filter (Silkroad.Conn_table.mem_exact ct) (Array.to_list tuples))
  in
  let lookup_ns =
    time_per_op ~n ~prepare:Fun.id (fun () ->
        Array.iter (fun t -> ignore (Silkroad.Conn_table.lookup_code ct t)) tuples)
  in
  let insert_ns =
    time_per_op ~n:(Array.length installed)
      ~prepare:(fun () ->
        (* a fresh table is a large major-heap allocation: collect before
           timing, so the first inserts do not pay for its marking *)
        let table = Silkroad.Conn_table.create cfg in
        Gc.full_major ();
        table)
      (fun table ->
        Array.iter (fun t -> ignore (Silkroad.Conn_table.insert table t ~version:0)) installed)
  in
  let pools = Switch.pools sw and vt = Switch.vip_table sw in
  let versions =
    Array.map
      (fun (t : Netcore.Five_tuple.t) ->
        Option.value (Silkroad.Vip_table.current vt t.Netcore.Five_tuple.dst) ~default:0)
      tuples
  in
  let select_ns =
    time_per_op ~n ~prepare:Fun.id (fun () ->
        Array.iteri
          (fun i (t : Netcore.Five_tuple.t) ->
            ignore
              (Silkroad.Dip_pool_table.select_dip_fast pools ~vip:t.Netcore.Five_tuple.dst
                 ~version:versions.(i) t ~none:Switch.no_dip))
          tuples)
  in
  (* the switch's TransitTable key: Five_tuple.hash with its seed *)
  let keys =
    Array.map (Netcore.Five_tuple.hash ~seed:(cfg.Silkroad.Config.seed lxor 0x7a17)) tuples
  in
  let bloom =
    Asic.Bloom_filter.create ~seed:cfg.Silkroad.Config.seed
      ~bits:(cfg.Silkroad.Config.transit_bytes * 8) ~hashes:cfg.Silkroad.Config.transit_hashes ()
  in
  (* a TransitTable records the few connections pending during one update *)
  Array.iteri (fun i k -> if i < 128 then Asic.Bloom_filter.add bloom k) keys;
  let bloom_mem_ns =
    time_per_op ~n ~prepare:Fun.id (fun () ->
        Array.iter (fun k -> ignore (Asic.Bloom_filter.mem bloom k)) keys)
  in
  let offer_ns =
    time_per_op ~n
      ~prepare:(fun () ->
        Asic.Learning_filter.create ~capacity:cfg.Silkroad.Config.learning_capacity
          ~timeout:cfg.Silkroad.Config.learning_timeout ())
      (fun lf ->
        Array.iteri
          (fun i t ->
            ignore (Asic.Learning_filter.offer lf ~now:(float_of_int i *. 1e-6) t ());
            if Asic.Learning_filter.pending lf >= Asic.Learning_filter.capacity lf then
              ignore (Asic.Learning_filter.drain lf))
          tuples)
  in
  let idle = cfg.Silkroad.Config.idle_timeout in
  let granularity = idle /. 4. in
  let span = inputs.Workloads.arrivals_end in
  let at i = idle +. (span *. float_of_int i /. float_of_int (Int.max 1 n)) in
  let filled_wheel () =
    let wheel = Asic.Timer_wheel.create ~granularity ~slots:16 () in
    Array.iteri (fun i t -> Asic.Timer_wheel.schedule wheel ~key:t ~at:(at i)) tuples;
    wheel
  in
  let schedule_ns =
    time_per_op ~n
      ~prepare:(fun () -> Asic.Timer_wheel.create ~granularity ~slots:16 ())
      (fun wheel ->
        Array.iteri (fun i t -> Asic.Timer_wheel.schedule wheel ~key:t ~at:(at i)) tuples)
  in
  let wheel_advance_ns =
    let stop = at n +. granularity in
    time_per_op ~n ~prepare:filled_wheel (fun wheel ->
        for i = 1 to n do
          ignore
            (Asic.Timer_wheel.advance wheel ~now:(stop *. float_of_int i /. float_of_int n))
        done)
  in
  let hash_ns =
    time_per_op ~n ~prepare:Fun.id (fun () ->
        Array.iter
          (fun t -> ignore (Netcore.Five_tuple.hash ~seed:cfg.Silkroad.Config.seed t))
          tuples)
  in
  let table = Hashtbl.create (Int.max 16 n) in
  Array.iter (fun t -> Hashtbl.replace table t ()) tuples;
  let hashtbl_find_ns =
    time_per_op ~n ~prepare:Fun.id (fun () ->
        Array.iter (fun t -> ignore (Hashtbl.mem table t)) tuples)
  in
  {
    occupancy = Silkroad.Conn_table.occupancy ct;
    hit_ratio = float_of_int (Array.length installed) /. float_of_int (Int.max 1 n);
    lookup_ns;
    insert_ns;
    select_ns;
    bloom_mem_ns;
    offer_ns;
    schedule_ns;
    wheel_advance_ns;
    hash_ns;
    hashtbl_find_ns;
  }

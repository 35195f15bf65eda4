module Ftbl = Netcore.Five_tuple.Tbl

(* Connection state lives in a slab the switch owns: flat columns
   indexed by an int handle, one handle per connection (its tuple, its
   VIP's record, its version's record, its flag bits, the last packet's
   time, its pending-vector slot and its aging-wheel position). [flows]
   maps a tuple to its handle; the ConnTable stores the handle beside
   each entry's word, so an exact hit reads its connection through the
   slot it matched and does no [flows] find; the pending vector, the
   aging wheel, the learning filter's payload and the CPU work carry
   handles. No structure points to a connection, so the GC marks three
   pointer columns instead of a record per connection and every pointer
   to it.

   The columns come in chunks of [chunk_size] handles, each column's
   chunks listed in a directory that starts empty and doubles. Growing
   adds a chunk and never copies a column: doubling whole columns left
   each old copy to the GC and raised perfbench replay-full-table's
   peak RSS by 3.5 MB. The four int fields are one strided column, so a
   connection's flags and [last_seen], which an exact hit reads and
   writes, share a cache line. Freed handles are reused from a free
   list, and a pin count guards each handle that queued work still
   names ([pin_unit]). *)
let chunk_bits = 10
let chunk_size = 1 lsl chunk_bits
let chunk_mask = chunk_size - 1

type slab = {
  mutable tuples : Netcore.Five_tuple.t array array;
  mutable vips : Vip_table.entry array array;  (** its VIP's record *)
  mutable pools : Dip_pool_table.info array array;
      (** the version assigned when it arrived *)
  mutable ints : int array array;
      (** per handle, four ints: the flag bits below with the pin count
          above them; the last packet's time, as [time_bits]; the slot
          in the pending vector, or -1 (on a free handle, the next free
          handle, or -1); the aging-wheel position, or
          [Timer_wheel.no_pos] *)
  mutable used : int;  (** handles [0, used) have been handed out *)
  mutable free_head : int;  (** a free handle, or -1 *)
}

let[@inline] cell dir h =
  Array.unsafe_get (Array.unsafe_get dir (h lsr chunk_bits)) (h land chunk_mask)

let[@inline] tuple s h = cell s.tuples h
let[@inline] vip s h = cell s.vips h
let[@inline] pool s h = cell s.pools h

let[@inline] int_at s h k =
  Array.unsafe_get (Array.unsafe_get s.ints (h lsr chunk_bits)) ((4 * (h land chunk_mask)) + k)

let[@inline] set_int s h k v =
  Array.unsafe_set (Array.unsafe_get s.ints (h lsr chunk_bits)) ((4 * (h land chunk_mask)) + k) v

let[@inline] flags s h = int_at s h 0
let[@inline] set_flags s h f = set_int s h 0 f
let[@inline] seen s h = int_at s h 1
let[@inline] set_seen s h b = set_int s h 1 b
let[@inline] pend s h = int_at s h 2
let[@inline] set_pend s h i = set_int s h 2 i
let[@inline] age s h = int_at s h 3
let[@inline] set_age s h pos = set_int s h 3 pos

let inserted = 1
let in_pipeline = 2  (* learning event in the filter or at the CPU *)
let ended = 4

(* torn down and gone from [flows], while queued work still names it *)
let destroyed = 8
let free = 16

(* The guard that keeps a handle from outliving its connection: each
   learning event, CPU work item and overflow entry naming a handle
   pins it, and a destroyed handle returns to the free list only when
   its last pin goes. Until then its tuple stays, so the work resolves
   through [flows] by that tuple ([live]), as it did when it held the
   connection's record, and no reuse of the handle can reach it. *)
let pin_unit = 32

let[@inline] has s h bit = flags s h land bit <> 0
let[@inline] set s h bit = set_flags s h (flags s h lor bit)
let[@inline] unset s h bit = set_flags s h (flags s h land lnot bit)
let[@inline] pins s h = flags s h / pin_unit

(* A packet time as an int: its IEEE-754 bits, as [Packed_trace]'s
   radix fallback keys them. Times are >= 0, so masking off the sign bit decodes every
   one of them to an equal float. An int column lets a packet's boxed
   time die in the minor heap. *)
let[@inline] time_bits now = Int64.to_int (Int64.bits_of_float now)

let[@inline] last_seen s h =
  Int64.float_of_bits (Int64.logand (Int64.of_int (seen s h)) Int64.max_int)

(* Doubling by [Array.append]: an [Array.make] too big for the minor
   heap whose filler is young forces a minor collection first *)
let grow a fill = if Array.length a = 0 then Array.make 16 fill else Array.append a a

(* chunk [n] of a column: a new chunk of a pointer column is a copy of
   the first, since an [Array.make] this big whose filler is young (a
   version record an update just made) forces a minor collection *)
let add_column dir n col =
  let dir = if n = Array.length dir then grow dir col else dir in
  dir.(n) <- col;
  dir

let alloc s flow e info ~seen =
  let h =
    if s.free_head >= 0 then begin
      let h = s.free_head in
      s.free_head <- pend s h;
      h
    end
    else begin
      let h = s.used in
      if h land chunk_mask = 0 then begin
        let n = h lsr chunk_bits in
        let fresh dir fill =
          if n = 0 then Array.make chunk_size fill else Array.sub dir.(0) 0 chunk_size
        in
        s.tuples <- add_column s.tuples n (fresh s.tuples flow);
        s.vips <- add_column s.vips n (fresh s.vips e);
        s.pools <- add_column s.pools n (fresh s.pools info);
        s.ints <- add_column s.ints n (Array.make (4 * chunk_size) 0)
      end;
      s.used <- h + 1;
      h
    end
  in
  let i = h land chunk_mask and n = h lsr chunk_bits in
  s.tuples.(n).(i) <- flow;
  s.vips.(n).(i) <- e;
  s.pools.(n).(i) <- info;
  set_flags s h 0;
  set_seen s h seen;
  set_pend s h (-1);
  set_age s h Asic.Timer_wheel.no_pos;
  h

let release_handle s h =
  set_flags s h free;
  set_pend s h s.free_head;
  s.free_head <- h

let pin s h = set_flags s h (flags s h + pin_unit)

let unpin s h =
  let f = flags s h - pin_unit in
  set_flags s h f;
  if f < pin_unit && f land destroyed <> 0 then release_handle s h

(* CPU work names connections by handle. A handle destroyed while its
   work queued resolves through [flows] by its tuple ([live]), which may
   find a newer connection on the same 5-tuple. *)
type cpu_work =
  | Insert_batch of int list
  | Delete of int
  | Repairs of int
      (** collision repairs already applied to the table; completion
          accounts the CPU time so the backlog is observable *)
  | Overflow_retry_batch of (int * int) list
      (** deferred inserts from the overflow queue, with their attempt
          count; each retry re-runs the cuckoo search at a higher CPU
          cost than a first-time insert *)

type stats = {
  asic_packets : int;
  cpu_packets : int;
  dropped_packets : int;
  connections_seen : int;
  false_hits : int;
  collision_repairs : int;
  learning_drops : int;
  table_full_drops : int;
  insert_overflows : int;
  overflow_retries : int;
  updates_completed : int;
  updates_failed : int;
  transit_clears : int;
  forced_transitions : int;
}

(* the pending connections: exactly the tracked flows neither inserted
   nor ended, the only ones a §4.3 step-1 barrier can wait on. A flow
   joins when its state is created and leaves for good when either flag
   is set, so an update costs what is pending, not what is tracked. A
   dense vector of handles: each connection keeps its slot, and leaving
   is a swap-remove. *)
type pending = { mutable vec : int array; mutable len : int }

type t = {
  cfg : Config.t;
  conns : Conn_table.t;
  pools : Dip_pool_table.t;
  vips : Vip_table.t;
  jobs : Update_job.t;  (** the VIPs' §4.3 update jobs and the TransitTable *)
  slab : slab;
  learning : int Asic.Learning_filter.t;
  cpu : Asic.Switch_cpu.t;
  (* completion times are monotone (FIFO CPU), so a plain queue works *)
  cpu_done : (float * cpu_work) Queue.t;
  (* insert-overflow queue (§7): connections whose insert found the
     table full wait here and are retried in batches on the switch CPU
     instead of being dropped from state on first failure. At most one
     retry batch is in flight at a time so overflow work never starves
     the learning pipeline. *)
  overflow : (int * int) Queue.t;
  mutable overflow_inflight : bool;
  flows : int Ftbl.t;
  pending : pending;
  (* lazy idle-timeout timers: one wheel entry per live tracked
     connection, verified against last_seen on expiry; the slab keeps
     each one's position *)
  aging : int Asic.Timer_wheel.t;
  mutable clock : float;  (** latest time the control plane has seen *)
  (* fast-path side channel: where the last processed packet went.
     [process_flow] returns only the DIP (or [no_dip]); callers that
     want the location read this immediately after. *)
  mutable last_location : Lb.Balancer.location;
  (* telemetry: one registry owns every counter/gauge/histogram of this
     switch and its ASIC primitives; the handles below are cached so the
     data plane pays one int-ref bump per event, same as a mutable field *)
  metrics : Telemetry.Registry.t;
  c_asic_packets : Telemetry.Registry.Counter.t;
  c_cpu_packets : Telemetry.Registry.Counter.t;
  c_dropped_packets : Telemetry.Registry.Counter.t;
  c_connections_seen : Telemetry.Registry.Counter.t;
  c_learning_drops : Telemetry.Registry.Counter.t;
  c_table_full_drops : Telemetry.Registry.Counter.t;
  c_insert_overflows : Telemetry.Registry.Counter.t;
  c_overflow_retries : Telemetry.Registry.Counter.t;
  c_metered_drops : Telemetry.Registry.Counter.t;
  c_repairs_completed : Telemetry.Registry.Counter.t;
  c_rerouted_flows : Telemetry.Registry.Counter.t;
  (* the uniform per-balancer pair every Lb.Balancer.t registry exposes *)
  c_lb_packets : Telemetry.Registry.Counter.t;
  c_lb_dropped : Telemetry.Registry.Counter.t;
  g_tracked_flows : Telemetry.Registry.Gauge.t;
}

let src = Logs.Src.create "silkroad.switch" ~doc:"SilkRoad switch control plane"

module Log = (val Logs.src_log src : Logs.LOG)

(* Insert-overflow queue tuning: a deferred insert is retried at most
   [max_overflow_retries] times, in batches of [overflow_batch], each
   retried insert costing [overflow_retry_cost] CPU work items (the
   switch CPU re-runs the whole cuckoo search against a saturated
   table). The queue is bounded; beyond [overflow_cap] the connection is
   dropped from state immediately, as on real hardware. *)
let max_overflow_retries = 2
let overflow_batch = 64
let overflow_retry_cost = 4
let overflow_cap = 65536

let create ?metrics ?(check = `Warn) cfg =
  (match Config.validate cfg with
   | Ok () -> ()
   | Error msg -> invalid_arg ("Switch.create: " ^ msg));
  (* static feasibility: would this configuration compile to the ASIC's
     stages at all? (`Warn logs and proceeds — the simulation model can
     still run an over-budget table; real hardware could not.) *)
  (match check with
   | `Off -> ()
   | (`Warn | `Fail) as check ->
     (match (Program.feasibility cfg).Asic.Pipeline.failure with
      | None -> ()
      | Some f ->
        let msg = Format.asprintf "infeasible pipeline: %a" Asic.Pipeline.pp_failure f in
        (match check with
         | `Fail -> invalid_arg ("Switch.create: " ^ msg)
         | `Warn -> Log.warn (fun m -> m "%s" msg))));
  let reg = match metrics with Some r -> r | None -> Telemetry.Registry.create () in
  let counter = Telemetry.Registry.counter reg in
  let pools = Dip_pool_table.create ~version_bits:cfg.Config.version_bits ~seed:cfg.Config.seed in
  let vips = Vip_table.create ~metrics:reg in
  let slab = { tuples = [||]; vips = [||]; pools = [||]; ints = [||]; used = 0; free_head = -1 } in
  let pending = { vec = [||]; len = 0 } in
  let add_pending e waiting =
    for i = 0 to pending.len - 1 do
      let h = pending.vec.(i) in
      if vip slab h == e then Ftbl.replace waiting (tuple slab h) ()
    done
  in
  {
    cfg;
    conns = Conn_table.create ~metrics:reg ~key_of:(fun h -> tuple slab h) cfg;
    pools;
    vips;
    jobs = Update_job.create ~metrics:reg cfg vips pools ~add_pending;
    slab;
    learning =
      Asic.Learning_filter.create ~metrics:reg ~capacity:cfg.Config.learning_capacity
        ~timeout:cfg.Config.learning_timeout ();
    cpu =
      Asic.Switch_cpu.create ~metrics:reg
        ~insertions_per_sec:cfg.Config.cpu_insertions_per_sec ();
    cpu_done = Queue.create ();
    overflow = Queue.create ();
    overflow_inflight = false;
    flows = Ftbl.create 4096;
    pending;
    aging =
      Asic.Timer_wheel.create
        ~set_pos:(fun h pos -> set_age slab h pos)
        ~granularity:(cfg.Config.idle_timeout /. 4.) ~slots:16 ();
    clock = 0.;
    last_location = Lb.Balancer.Asic;
    metrics = reg;
    c_asic_packets = counter "switch.asic_packets";
    c_cpu_packets = counter "switch.cpu_packets";
    c_dropped_packets = counter "switch.dropped_packets";
    c_connections_seen = counter "switch.connections_seen";
    c_learning_drops = counter "switch.learning_drops";
    c_table_full_drops = counter "switch.table_full_drops";
    c_insert_overflows = counter "switch.insert_overflows";
    c_overflow_retries = counter "switch.overflow_retries";
    c_metered_drops = counter "switch.metered_drops";
    c_repairs_completed = counter "switch.repairs_completed";
    c_rerouted_flows = counter "switch.rerouted_flows";
    c_lb_packets = counter "lb.packets";
    c_lb_dropped = counter "lb.dropped_packets";
    g_tracked_flows = Telemetry.Registry.gauge reg "switch.tracked_flows";
  }

let add_vip t vip pool =
  match Dip_pool_table.add_vip t.pools vip pool with
  | Ok (pools, version) -> ignore (Vip_table.add t.vips vip pools ~version)
  | Error `Exists -> invalid_arg "Switch.add_vip: VIP exists"

let has_vip t vip = Vip_table.mem t.vips vip

(* ----- connection state bookkeeping ----- *)

let add_pending t h =
  let p = t.pending in
  let n = p.len in
  if n = Array.length p.vec then p.vec <- grow p.vec 0;
  p.vec.(n) <- h;
  set_pend t.slab h n;
  p.len <- n + 1

(* a new connection's state: tracked, aging, holding its version, and
   pending until it is inserted or ends. [flow] has no state yet, so
   [add] (no bucket search) leaves [flows] as [replace] would. *)
let track t ~now flow e pool =
  Telemetry.Registry.Counter.incr t.c_connections_seen;
  let h = alloc t.slab flow e pool ~seen:(time_bits now) in
  Ftbl.add t.flows flow h;
  add_pending t h;
  Asic.Timer_wheel.schedule t.aging ~key:h ~at:(now +. t.cfg.Config.idle_timeout);
  Dip_pool_table.retain pool;
  h

(* [inserted] or [ended] was just set: the flow is no longer pending.
   Swap-remove: the vector's last handle takes the freed slot. *)
let settle t h =
  let s = t.slab in
  let i = pend s h in
  if i >= 0 then begin
    let p = t.pending in
    let last = p.len - 1 in
    let moved = p.vec.(last) in
    p.vec.(i) <- moved;
    set_pend s moved i;
    p.len <- last;
    set_pend s h (-1)
  end

(* gone from every structure but the slab; the handle is freed now, or
   by the [unpin] of the last work that names it *)
let destroy_state t h =
  let s = t.slab in
  settle t h;
  Asic.Timer_wheel.cancel t.aging ~pos:(age s h);
  let e = vip s h in
  Dip_pool_table.release e.pools (pool s h) ~current:e.current;
  Ftbl.remove t.flows (tuple s h);
  if pins s h = 0 then release_handle s h else set s h destroyed

(* tear [h] down as a deletion does: its ConnTable entry when it was
   installed, any step-1 barrier it held, then its state *)
let teardown t ~now h =
  let s = t.slab in
  if has s h inserted then ignore (Conn_table.remove_handle t.conns h);
  Update_job.resolved t.jobs ~now (vip s h) (tuple s h);
  destroy_state t h

(* the connection CPU work queued for [h] now acts on: [h] itself, or,
   once [h] was destroyed, whichever newer connection holds its tuple.
   Raises [Not_found] when there is none. *)
let live t h = if has t.slab h destroyed then Ftbl.find t.flows (tuple t.slab h) else h

(* ----- control plane ----- *)

(* The switch CPU installs [h0]'s entry, from a learning batch
   ([attempt] 0) or the overflow queue (1 .. [max_overflow_retries]). A
   connection installed meanwhile (a collision repair, possibly of a
   newer connection on the same 5-tuple) is left as it is, since its own
   delete tears it down once it ends; one that has ended uninstalled is
   torn down here. On [`Full] it is parked on the overflow queue
   while it has retries left and the queue has room, else it stays
   stateless (§7). The first failure counts an overflow and releases the
   running update's barrier; a re-queue after it resolves nothing, so a
   later update waits for the parked flow until its install or its last
   retry giving up ([Update_job.start]). *)
let install t ~now h0 ~attempt =
  let s = t.slab in
  (match live t h0 with
   | exception Not_found -> ()  (* state destroyed while queued *)
   | h ->
     unset s h in_pipeline;
     if has s h inserted then ()
     else if has s h ended then teardown t ~now h
     else begin
       match Conn_table.insert_handle t.conns h ~version:(pool s h).version with
       | Ok _ | Error `Duplicate ->
         set s h inserted;
         settle t h;
         Update_job.resolved t.jobs ~now (vip s h) (tuple s h)
       | Error `Full
         when attempt < max_overflow_retries && Queue.length t.overflow < overflow_cap ->
         pin s h;
         Queue.add (h, attempt + 1) t.overflow;
         set s h in_pipeline;
         if attempt = 0 then begin
           Telemetry.Registry.Counter.incr t.c_insert_overflows;
           Update_job.resolved t.jobs ~now (vip s h) (tuple s h)
         end
       | Error `Full ->
         Telemetry.Registry.Counter.incr t.c_table_full_drops;
         let pct = 100. *. Conn_table.occupancy t.conns in
         if attempt = 0 then
           Log.warn (fun m ->
               m "ConnTable full (%.1f%%), overflow queue full: connection left stateless" pct)
         else
           Log.warn (fun m ->
               m "ConnTable full (%.1f%%) after %d insert attempts: connection left stateless" pct
                 (attempt + 1));
         Update_job.resolved t.jobs ~now (vip s h) (tuple s h)
     end);
  unpin s h0

(* A top-level recursion, not a local [go] closure: [advance] calls
   this on every packet, and a closure would be allocated even when
   nothing is due. *)
let rec complete_cpu_work t ~now =
  (* option-free peek: this runs on every packet via [advance] *)
  if not (Queue.is_empty t.cpu_done) then begin
    let at, _ = Queue.peek t.cpu_done in
    if at <= now then begin
      let _, work = Queue.pop t.cpu_done in
      (match work with
       | Insert_batch batch -> List.iter (fun h0 -> install t ~now h0 ~attempt:0) batch
       | Delete h0 ->
         (* no connection, or one that has not ended (a newer one on
            the same 5-tuple): the state this delete was issued for was
            torn down while it queued (re-route, VIP removal), entry
            included *)
         (match live t h0 with
          | h when has t.slab h ended -> teardown t ~now h
          | _ | (exception Not_found) -> ());
         unpin t.slab h0
       | Repairs n ->
         (* repairs were applied synchronously at submission; completion
            only accounts the CPU time *)
         Telemetry.Registry.Counter.add t.c_repairs_completed n
       | Overflow_retry_batch items ->
         t.overflow_inflight <- false;
         List.iter
           (fun (h0, attempt) ->
             Telemetry.Registry.Counter.incr t.c_overflow_retries;
             install t ~now h0 ~attempt)
           items);
      complete_cpu_work t ~now
    end
  end

(* launch the next overflow retry batch once the previous one finished;
   one batch in flight at a time keeps deferred inserts from starving
   the learning pipeline on the shared CPU FIFO *)
let schedule_overflow_retries t ~now =
  if (not t.overflow_inflight) && not (Queue.is_empty t.overflow) then begin
    let n = Int.min overflow_batch (Queue.length t.overflow) in
    let rec take n acc = if n = 0 then List.rev acc else take (n - 1) (Queue.pop t.overflow :: acc) in
    let items = take n [] in
    let done_at = Asic.Switch_cpu.submit t.cpu ~now ~work_items:(overflow_retry_cost * n) in
    Queue.add (done_at, Overflow_retry_batch items) t.cpu_done;
    t.overflow_inflight <- true
  end

(* the batch's size is read before the drain empties the filter *)
let drain_learning t ~at =
  let n = Asic.Learning_filter.pending t.learning in
  match Asic.Learning_filter.drain t.learning with
  | [] -> ()
  | batch ->
    let done_at = Asic.Switch_cpu.submit t.cpu ~now:at ~work_items:n in
    Queue.add (done_at, Insert_batch batch) t.cpu_done

let submit_delete t ~now h =
  pin t.slab h;
  let done_at = Asic.Switch_cpu.submit t.cpu ~now ~work_items:1 in
  Queue.add (done_at, Delete h) t.cpu_done

(* [h] just left the wheel: a handle in it is never destroyed, since
   destruction cancels its entry *)
let expire_one t ~now h =
  let s = t.slab in
  if has s h ended then ()
  else if now -. last_seen s h >= t.cfg.Config.idle_timeout then begin
    (* no [settle]: an installed flow left the pending set when it was
       inserted, and an uninstalled one is destroyed right here *)
    set s h ended;
    if has s h inserted then submit_delete t ~now h
    else
      (* never installed (e.g. table full): just drop the state *)
      teardown t ~now h
  end
  else
    (* saw traffic since: re-arm for the remaining idle budget *)
    Asic.Timer_wheel.schedule t.aging ~key:h ~at:(last_seen s h +. t.cfg.Config.idle_timeout)

(* closure-free: the wheel returns [] on every same-tick packet *)
let rec expire_all t ~now = function
  | [] -> ()
  | h :: rest ->
    expire_one t ~now h;
    expire_all t ~now rest

let expire_idle t ~now = expire_all t ~now (Asic.Timer_wheel.advance t.aging ~now)

(* due learning batches first: their completions may already be due.
   The bool probe keeps this per-packet loop off the GC; the deadline,
   a boxed float, is read only when a drain fires. *)
let rec drain_due t ~now =
  if Asic.Learning_filter.due t.learning ~now then begin
    (match Asic.Learning_filter.next_deadline t.learning with
     | Some at -> drain_learning t ~at
     | None -> ());
    drain_due t ~now
  end

let advance t ~now =
  if now >= t.clock then begin
    t.clock <- now;
    drain_due t ~now;
    complete_cpu_work t ~now;
    schedule_overflow_retries t ~now;
    expire_idle t ~now;
    Update_job.advance t.jobs ~now;
    Telemetry.Registry.Gauge.set_int t.g_tracked_flows (Ftbl.length t.flows)
  end

(* ----- data plane ----- *)

(* The fast path returns this physically-unique sentinel instead of an
   [Endpoint.t option]; callers must compare with [==]. *)
let no_dip = Netcore.Endpoint.none

let drop t =
  Telemetry.Registry.Counter.incr t.c_dropped_packets;
  Telemetry.Registry.Counter.incr t.c_lb_dropped;
  t.last_location <- Lb.Balancer.Asic;
  no_dip

(* DIPPoolTable: the VIP's pool at [version], matched by number within
   the VIP's record *)
let forward t (e : Vip_table.entry) ~version flow ~location =
  let dip =
    Dip_pool_table.select t.pools (Dip_pool_table.lookup e.pools version) flow ~none:no_dip
  in
  if dip == no_dip then drop t
  else begin
    Telemetry.Registry.Counter.incr t.c_lb_packets;
    (match location with
     | Lb.Balancer.Asic -> Telemetry.Registry.Counter.incr t.c_asic_packets
     | Lb.Balancer.Switch_cpu | Lb.Balancer.Slb ->
       Telemetry.Registry.Counter.incr t.c_cpu_packets);
    t.last_location <- location;
    dip
  end

(* learning: raise an event for a connection whose entry is missing *)
let learn t ~now h =
  let s = t.slab in
  if not (has s h in_pipeline) then begin
    match Asic.Learning_filter.offer t.learning ~now (tuple s h) h with
    | `Accepted ->
      set s h in_pipeline;
      pin s h;
      if Asic.Learning_filter.pending t.learning >= Asic.Learning_filter.capacity t.learning
      then drain_learning t ~at:now
    | `Duplicate -> set s h in_pipeline
    | `Dropped -> Telemetry.Registry.Counter.incr t.c_learning_drops
  end

(* VIPTable + TransitTable assign the version. The software slow path
   (a CPU-checked miss) knows the connection's true version; the
   hardware fast path forwards with the freshly computed one — if that
   differs from the connection's own, that is exactly a PCC hazard. *)
let handle_miss t ~now ~ends flow e ~syn =
  (* find + exception: pending flows take this path on every packet, and
     find_opt's [Some] box was visible in the replay allocation counters *)
  match Ftbl.find t.flows flow with
  | h ->
    (* a pending connection's later packet *)
    let s = t.slab in
    set_seen s h (time_bits now);
    if ends then begin
      set s h ended;
      settle t h
    end;
    let code = Update_job.miss t.jobs flow e ~syn ~record:(not (has s h inserted)) in
    learn t ~now h;
    if code land 1 = 1 then
      forward t e ~version:(pool s h).version flow ~location:Lb.Balancer.Switch_cpu
    else forward t e ~version:(code lsr 1) flow ~location:Lb.Balancer.Asic
  | exception Not_found ->
    let code = Update_job.miss t.jobs flow e ~syn ~record:(not ends) in
    let version = code lsr 1 in
    (* a first-and-last packet has nothing worth learning *)
    if not ends then learn t ~now (track t ~now flow e (Dip_pool_table.lookup e.pools version));
    forward t e ~version flow
      ~location:(if code land 1 = 1 then Lb.Balancer.Switch_cpu else Lb.Balancer.Asic)

(* a SYN falsely hit an existing entry: the switch CPU repairs the
   digest collision and installs the newcomer's own entry (§4.2) *)
let handle_false_hit_syn t ~now flow e =
  (* in step 1 the miss marks the flow in the TransitTable, tracked or not *)
  let version = Update_job.miss t.jobs flow e ~syn:true ~record:false lsr 1 in
  let s = t.slab in
  let h =
    match Ftbl.find t.flows flow with
    | h ->
      set_seen s h (time_bits now);
      h
    | exception Not_found -> track t ~now flow e (Dip_pool_table.lookup e.pools version)
  in
  let version = (pool s h).version in
  (* the repair itself is applied synchronously below, but its CPU time
     goes through the shared FIFO so the backlog it causes is visible in
     the queue-delay histogram and accounted at completion *)
  let done_at = Asic.Switch_cpu.submit t.cpu ~now ~work_items:3 in
  Queue.add (done_at, Repairs 1) t.cpu_done;
  (match Conn_table.repair_handle t.conns h ~version with
   | Ok () ->
     set s h inserted;
     settle t h;
     Update_job.resolved t.jobs ~now e flow
   | Error `Full -> Telemetry.Registry.Counter.incr t.c_table_full_drops);
  forward t e ~version flow ~location:Lb.Balancer.Switch_cpu

(* Allocation-free packet path: returns the chosen DIP, or the
   physically-unique [no_dip] sentinel on a drop (compare with [==]);
   the location is left in [t.last_location]. [process] wraps this into
   the [Lb.Balancer.outcome] record; the replay engines call it
   directly, once a packet, to keep the hot loop off the GC. The VIP's
   record is found once, and every table after it is matched through
   that record. *)
let process_flow t ~now ~flags ~payload_len flow =
  advance t ~now;
  let vip = flow.Netcore.Five_tuple.dst in
  match Vip_table.find t.vips vip with
  | exception Not_found -> drop t
  | e ->
    if
      (* §5.2 performance isolation: the VIP's meter drops Red packets in
         the ASIC before any table is consulted *)
      match e.meter with
      | Some m ->
        Asic.Meter.mark m ~now ~bytes:(Netcore.Packet.wire_size_of ~payload_len flow)
        = Asic.Meter.Red
      | None -> false
    then begin
      Telemetry.Registry.Counter.incr t.c_metered_drops;
      Telemetry.Registry.Counter.incr (Lazy.force e.metered_drops);
      drop t
    end
    else begin
      let syn = Netcore.Tcp_flags.is_connection_start flags in
      let ends = Netcore.Tcp_flags.is_connection_end flags in
      let code = Conn_table.lookup_entry t.conns flow in
      if code < 0 then handle_miss t ~now ~ends flow e ~syn
      else begin
        let version = (code lsr 1) land 0x7FFF_FFFF in
        if code land 1 = 1 then begin
          (* exact hit: the entry's handle is the flow's connection *)
          let h = code lsr 32 and s = t.slab in
          set_seen s h (time_bits now);
          (* an exact hit is installed, so not pending: no [settle] *)
          if ends && not (has s h ended) then begin
            set s h ended;
            submit_delete t ~now h
          end;
          forward t e ~version flow ~location:Lb.Balancer.Asic
        end
        else if syn then handle_false_hit_syn t ~now flow e
        else
          (* wrong entry, wrong version — forwarded anyway (rare digest
             false positive); VIPTable is bypassed *)
          forward t e ~version flow ~location:Lb.Balancer.Asic
      end
    end

let last_location t = t.last_location

let process t ~now pkt =
  let dip =
    process_flow t ~now ~flags:pkt.Netcore.Packet.flags
      ~payload_len:pkt.Netcore.Packet.payload_len pkt.Netcore.Packet.flow
  in
  if dip == no_dip then { Lb.Balancer.dip = None; location = t.last_location }
  else { Lb.Balancer.dip = Some dip; location = t.last_location }

let request_update t ~now ~vip update =
  advance t ~now;
  match Vip_table.find t.vips vip with
  | e -> Update_job.request t.jobs ~now e update
  | exception Not_found -> invalid_arg "Switch.request_update: unknown VIP"

(* tear down every tracked connection [select flow vip] picks: ConnTable
   entries, aging timers, version refcounts and step-1 barriers all go
   through the same path a deletion takes. Returns how many. *)
let teardown_where t ~now select =
    let doomed =
    Ftbl.fold (fun flow h acc -> if select flow (vip t.slab h) then h :: acc else acc) t.flows []
  in
  List.iter (teardown t ~now) doomed;
  List.length doomed

let remove_vip t vip =
  let e =
    match Vip_table.find t.vips vip with
    | e -> e
    | exception Not_found -> invalid_arg "Switch.remove_vip: unknown VIP"
  in
  (* a VIP with queued updates has an active one *)
  (match e.phase with
   | Vip_table.Idle -> ()
   | Vip_table.Recording _ | Vip_table.Dual _ ->
     invalid_arg "Switch.remove_vip: update in progress");
  (* an idle VIP holds no barrier, so the clock [teardown] reads is moot *)
  ignore (teardown_where t ~now:t.clock (fun _ e' -> e' == e));
  Vip_table.remove t.vips e;
  Dip_pool_table.remove_vip t.pools vip

let inject_cpu_backlog t ~now ~work_items =
  advance t ~now;
  if work_items > 0 then begin
    (* an empty repair batch: occupies the CPU for [work_items] units and
       is accounted through the normal completion queue, so the stall is
       visible in switch_cpu.backlog_seconds and the queue-delay
       histogram without touching any table *)
    let done_at = Asic.Switch_cpu.submit t.cpu ~now ~work_items in
    Queue.add (done_at, Repairs 0) t.cpu_done
  end

let forget_flows t ~now select =
  advance t ~now;
  (* an upstream re-route: the selected flows now hash to a different
     physical switch, so every trace of them here — ConnTable entry,
     aging timer, version refcount, any step-1 barrier they were
     holding — is torn down exactly as a deletion would. The flows
     themselves are still alive; they will reappear as unknown
     connections wherever ECMP sends them next. *)
  let n = teardown_where t ~now (fun flow (e : Vip_table.entry) -> select flow e.vip) in
  Telemetry.Registry.Counter.add t.c_rerouted_flows n;
  n

let set_meter t ~vip ~cir ~cbs ~eir ~ebs =
  match Vip_table.find t.vips vip with
  | e -> e.meter <- Some (Asic.Meter.create ~cir ~cbs ~eir ~ebs)
  | exception Not_found -> invalid_arg "Switch.set_meter: unknown VIP"

let clear_meter t ~vip =
  match Vip_table.find t.vips vip with
  | e -> e.meter <- None
  | exception Not_found -> ()

let metered_drops t = Telemetry.Registry.Counter.value t.c_metered_drops
let metrics t = t.metrics

let balancer t =
  {
    Lb.Balancer.name = "silkroad";
    advance = (fun ~now -> advance t ~now);
    process = (fun ~now pkt -> process t ~now pkt);
    update = (fun ~now ~vip u -> request_update t ~now ~vip u);
    connections = (fun () -> Conn_table.size t.conns);
    metrics = (fun () -> t.metrics);
    disturb =
      (fun ~now d ->
        match d with
        | Lb.Balancer.Cpu_backlog n -> inject_cpu_backlog t ~now ~work_items:n
        | Lb.Balancer.Reroute r ->
          ignore
            (forget_flows t ~now (fun flow _vip -> Lb.Balancer.reroute_selects r flow)));
  }

let stats t =
  let v = Telemetry.Registry.Counter.value in
  let c = Telemetry.Registry.counter_value t.metrics in
  {
    asic_packets = v t.c_asic_packets;
    cpu_packets = v t.c_cpu_packets;
    dropped_packets = v t.c_dropped_packets;
    connections_seen = v t.c_connections_seen;
    false_hits = Conn_table.false_hits t.conns;
    collision_repairs = Conn_table.repairs t.conns;
    learning_drops = v t.c_learning_drops;
    table_full_drops = v t.c_table_full_drops;
    insert_overflows = v t.c_insert_overflows;
    overflow_retries = v t.c_overflow_retries;
    updates_completed = c "switch.updates_completed";
    updates_failed = c "switch.updates_failed";
    transit_clears = c "switch.transit_clears";
    forced_transitions = c "switch.forced_transitions";
  }

let connections t = Conn_table.size t.conns
let conn_table t = t.conns
let pools t = t.pools
let vip_table t = t.vips
let jobs t = t.jobs

let memory_bits t =
  let vip_entry_bits vip = (Netcore.Endpoint.size_bytes vip * 8) + t.cfg.Config.version_bits in
  let vip_bits =
    let acc = ref 0 in
    Vip_table.iter (fun e -> acc := !acc + vip_entry_bits e.vip) t.vips;
    !acc
  in
  Conn_table.sram_bits t.conns + Dip_pool_table.sram_bits t.pools + vip_bits
  + Asic.Bloom_filter.bits (Update_job.transit t.jobs)

let check_invariants t =
  let problems = ref [] in
  let bad fmt = Format.kasprintf (fun s -> problems := s :: !problems) fmt in
  let s = t.slab in
  let pp_flow = Netcore.Five_tuple.pp in
  (* [flows] maps each tuple to a live handle holding that tuple;
     installed flows have entries; count tracked users per (vip,
     version) *)
  let users = Hashtbl.create 64 in
  Ftbl.iter
    (fun flow h ->
      if h < 0 || h >= s.used || has s h (destroyed lor free) then
        bad "flows maps %a to handle %d, which is not live" pp_flow flow h
      else begin
        if not (Netcore.Five_tuple.equal (tuple s h) flow) then
          bad "flows maps %a to handle %d, which holds %a" pp_flow flow h pp_flow (tuple s h);
        if has s h inserted && not (Conn_table.mem_exact t.conns flow) then
          bad "installed connection %a has no ConnTable entry" pp_flow flow;
        let e = vip s h and version = (pool s h).version in
        let live = Dip_pool_table.lookup e.pools version in
        if not (Dip_pool_table.allocated e.pools version) then
          bad "connection %a uses dead version %d" pp_flow flow version;
        let key = (e.vip, version) in
        match Hashtbl.find_opt users key with
        | Some (_, n) -> Hashtbl.replace users key (live, n + 1)
        | None -> Hashtbl.replace users key (live, 1)
      end)
    t.flows;
  (* refcounts match tracked users *)
  Hashtbl.iter
    (fun (vip, version) ((live : Dip_pool_table.info), n) ->
      if live.refs <> n then
        bad "version %d of %a has refcount %d but %d tracked users" version Netcore.Endpoint.pp
          vip live.refs n)
    users;
  (* a handle the pending vector, the aging wheel or the ConnTable
     holds must be the one [flows] maps its tuple to *)
  let tracked h =
    h >= 0 && h < s.used
    && (not (has s h free))
    && match Ftbl.find t.flows (tuple s h) with h' -> h' = h | exception Not_found -> false
  in
  (* the pending vector holds exactly the tracked flows neither inserted
     nor ended, each at the slot it records *)
  let pending = ref 0 in
  Ftbl.iter
    (fun flow h ->
      if not (has s h (inserted lor ended)) then begin
        incr pending;
        let i = pend s h in
        if i < 0 || i >= t.pending.len || t.pending.vec.(i) <> h then
          bad "pending connection %a missing from the pending vector" pp_flow flow
      end)
    t.flows;
  if t.pending.len <> !pending then
    bad "pending vector holds %d flows for %d pending connections" t.pending.len !pending;
  for i = 0 to t.pending.len - 1 do
    let h = t.pending.vec.(i) in
    if not (tracked h) then bad "pending vector slot %d holds handle %d, which is not tracked" i h
    else begin
      if pend s h <> i then
        bad "pending vector slot %d holds %a, which records slot %d" i pp_flow (tuple s h)
          (pend s h);
      if has s h (inserted lor ended) then
        bad "pending vector holds %a, which is not pending" pp_flow (tuple s h)
    end
  done;
  (* every live tracked connection has exactly one aging entry, at the
     position it records: each entry's handle names that entry, so no
     handle has two, and the entries are exactly the tracked handles
     with a position *)
  let aged = ref 0 in
  Asic.Timer_wheel.iter t.aging (fun pos h ->
      if not (tracked h) then bad "aging entry %d holds untracked handle %d" pos h
      else if age s h <> pos then
        bad "aging entry %d holds %a, which records position %d" pos pp_flow (tuple s h)
          (age s h));
  Ftbl.iter
    (fun flow h ->
      if age s h <> Asic.Timer_wheel.no_pos then incr aged
      else if not (has s h ended) then bad "live connection %a has no aging entry" pp_flow flow)
    t.flows;
  if Asic.Timer_wheel.scheduled t.aging <> !aged then
    bad "aging wheel holds %d entries for %d connections with a position"
      (Asic.Timer_wheel.scheduled t.aging) !aged;
  (* every ConnTable entry's handle names the connection [flows] maps
     its tuple to, so an exact hit reads the state a [flows] find would,
     and that connection is marked installed, so a teardown removes the
     entry *)
  Conn_table.iter_handles t.conns (fun h ->
      if not (tracked h) then bad "ConnTable entry of handle %d belongs to no tracked connection" h
      else if not (has s h inserted) then
        bad "ConnTable entry of %a belongs to a connection not marked installed" pp_flow
          (tuple s h));
  if Conn_table.size t.conns > Ftbl.length t.flows then
    bad "ConnTable holds %d entries for %d tracked connections" (Conn_table.size t.conns)
      (Ftbl.length t.flows);
  (* the pins: each learning event, queued CPU work item and overflow
     entry pins the handle it names, which is never free; a destroyed
     handle waits for exactly those pins *)
  let held = Array.make s.used 0 in
  let hold what h =
    if h < 0 || h >= s.used || has s h free then bad "%s holds free handle %d" what h
    else held.(h) <- held.(h) + 1
  in
  Asic.Learning_filter.iter t.learning (hold "the learning filter");
  Queue.iter (fun (h, _) -> hold "the overflow queue" h) t.overflow;
  Queue.iter
    (fun (_, work) ->
      match work with
      | Insert_batch hs -> List.iter (hold "a CPU insert batch") hs
      | Delete h -> hold "a CPU delete" h
      | Overflow_retry_batch items -> List.iter (fun (h, _) -> hold "a CPU retry batch" h) items
      | Repairs _ -> ())
    t.cpu_done;
  let n_free = ref 0 in
  for h = 0 to s.used - 1 do
    if has s h free then incr n_free
    else if pins s h <> held.(h) then
      bad "handle %d has %d pins but %d queued references" h (pins s h) held.(h)
    else if has s h destroyed && held.(h) = 0 then bad "destroyed handle %d is not freed" h
  done;
  let listed = ref 0 and h = ref s.free_head in
  while !h >= 0 && !listed <= s.used do
    if not (has s !h free) then bad "free list holds handle %d, which is not free" !h;
    incr listed;
    h := pend s !h
  done;
  if !listed <> !n_free then bad "free list holds %d handles for %d free ones" !listed !n_free;
  (* the accumulators above iterate hash tables: sort so a violation
     report reads the same regardless of table layout *)
  match List.sort String.compare (Update_job.check t.jobs @ !problems) with
  | [] -> Ok ()
  | l -> Error l

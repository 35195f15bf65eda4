module Ftbl = Netcore.Five_tuple.Tbl

(* One record per connection, and the handle for everything it owns:
   [flows] maps the tuple to it, and the pending vector, the aging wheel,
   the learning filter and the CPU batches hold the record itself. A
   connection's life therefore costs five 5-tuple table operations: the
   [flows] find on its first packet, the [flows] add and remove, and the
   learning filter's two dedupe operations. *)
type conn_state = {
  cs_flow : Netcore.Five_tuple.t;
  cs_vip : Vip_table.entry;  (** its VIP's record *)
  cs_pool : Dip_pool_table.info;  (** the version assigned when it arrived *)
  mutable inserted : bool;
  mutable in_pipeline : bool;  (** learning event in the filter or at the CPU *)
  mutable ended : bool;
  mutable destroyed : bool;  (** torn down and gone from [flows] *)
  mutable last_seen_bits : int;  (** the last packet's time, as [time_bits] *)
  mutable pend_pos : int;  (** slot in the pending vector, or -1 *)
  mutable age_pos : int;  (** aging-wheel position, or [Timer_wheel.no_pos] *)
}

(* A packet time as an int: its IEEE-754 bits, as [Packed_trace.compile]
   keys them. Times are >= 0, so masking off the sign bit decodes every
   one of them to an equal float. An int field lets a packet's boxed
   time die in the minor heap instead of being promoted with the
   connection that last saw it. *)
let[@inline] time_bits now = Int64.to_int (Int64.bits_of_float now)

let[@inline] last_seen st =
  Int64.float_of_bits (Int64.logand (Int64.of_int st.last_seen_bits) Int64.max_int)

type update_report = {
  ur_vip : Vip_table.entry;
  ur_update : Lb.Balancer.update;
  ur_requested : float;
  ur_finished : float;
  ur_old_version : int;
  ur_new_version : int;
  ur_outcome : [ `Completed | `Failed ];
}

(* CPU work names connections by record. A record destroyed while its
   work queued resolves through [flows] by its tuple ([live]), which may
   find a newer connection on the same 5-tuple. *)
type cpu_work =
  | Insert_batch of conn_state list
  | Delete of conn_state
  | Repairs of int
      (** collision repairs already applied to the table; completion
          accounts the CPU time so the backlog is observable *)
  | Overflow_retry_batch of (conn_state * int) list
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

type t = {
  cfg : Config.t;
  conns : Conn_table.t;
  pools : Dip_pool_table.t;
  vips : Vip_table.t;
  transit : Asic.Bloom_filter.t;
  learning : conn_state Asic.Learning_filter.t;
  cpu : Asic.Switch_cpu.t;
  (* completion times are monotone (FIFO CPU), so a plain queue works *)
  cpu_done : (float * cpu_work) Queue.t;
  (* insert-overflow queue (§7): connections whose insert found the
     table full wait here and are retried in batches on the switch CPU
     instead of being dropped from state on first failure. At most one
     retry batch is in flight at a time so overflow work never starves
     the learning pipeline. *)
  overflow : (conn_state * int) Queue.t;
  mutable overflow_inflight : bool;
  flows : conn_state Ftbl.t;
  (* the pending connections: exactly the tracked flows neither
     inserted nor ended, the only ones a §4.3 step-1 barrier can wait
     on. A flow joins when its state is created and leaves for good
     when either flag is set, so an update costs what is pending, not
     what is tracked. A dense vector: each record keeps its slot, and
     leaving is a swap-remove. *)
  mutable pending : conn_state array;
  mutable pending_len : int;
  (* lazy idle-timeout timers: one wheel entry per live tracked
     connection, verified against last_seen on expiry; the record keeps
     its own position *)
  aging : conn_state Asic.Timer_wheel.t;
  (* serve-mode observer: called once per update job as it completes or
     aborts, with virtual request/finish times and the version flip *)
  mutable update_hook : (update_report -> unit) option;
  mutable oldest_started : float;  (** see [refresh_oldest_started] *)
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
  c_updates_completed : Telemetry.Registry.Counter.t;
  c_updates_failed : Telemetry.Registry.Counter.t;
  c_transit_clears : Telemetry.Registry.Counter.t;
  c_forced_transitions : Telemetry.Registry.Counter.t;
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

(* Updates stuck behind a barrier member that will never be inserted
   (e.g. its learning event was dropped and the flow went quiet) are
   force-released after this many seconds. Counted in [forced_transitions]
   — always 0 in a healthy configuration. *)
let barrier_deadline = 5.

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
  {
    cfg;
    conns = Conn_table.create ~metrics:reg cfg;
    pools = Dip_pool_table.create ~version_bits:cfg.Config.version_bits ~seed:cfg.Config.seed;
    vips = Vip_table.create ~metrics:reg;
    transit =
      Asic.Bloom_filter.create ~seed:cfg.Config.seed ~metrics:reg
        ~bits:(cfg.Config.transit_bytes * 8) ~hashes:cfg.Config.transit_hashes ();
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
    pending = [||];
    pending_len = 0;
    aging =
      Asic.Timer_wheel.create
        ~set_pos:(fun st pos -> st.age_pos <- pos)
        ~granularity:(cfg.Config.idle_timeout /. 4.) ~slots:16 ();
    update_hook = None;
    oldest_started = infinity;
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
    c_updates_completed = counter "switch.updates_completed";
    c_updates_failed = counter "switch.updates_failed";
    c_transit_clears = counter "switch.transit_clears";
    c_forced_transitions = counter "switch.forced_transitions";
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

let flow_hash t flow = Netcore.Five_tuple.hash ~seed:(t.cfg.Config.seed lxor 0x7a17) flow

(* ----- update job state machine ----- *)

let clear_transit_if_idle t =
  if Vip_table.updating_count t.vips = 0 && Asic.Bloom_filter.population t.transit > 0 then begin
    Asic.Bloom_filter.clear t.transit;
    Telemetry.Registry.Counter.incr t.c_transit_clears
  end

(* the earliest [started] among the VIPs' active jobs, [infinity] with
   none: [advance] scans the VIPs for an overdue barrier only once this
   one is overdue. Refreshed whenever a job starts or ends. *)
let refresh_oldest_started t =
  let oldest = ref infinity in
  Vip_table.iter_jobs (fun _ job -> oldest := Float.min job.started !oldest) t.vips;
  t.oldest_started <- !oldest

let report t ~now (e : Vip_table.entry) (job : Vip_table.job) ~old_version outcome =
  match t.update_hook with
  | Some f ->
    f
      {
        ur_vip = e;
        ur_update = job.update;
        ur_requested = job.requested;
        ur_finished = now;
        ur_old_version = old_version;
        ur_new_version = e.current;
        ur_outcome = outcome;
      }
  | None -> ()

let rec start_next_queued t ~now (e : Vip_table.entry) =
  match Queue.take_opt e.queued with
  | None -> ()
  | Some (requested, u) -> start_job t ~now ~requested e u

and finish_job t ~now (e : Vip_table.entry) ~old_version (job : Vip_table.job) =
  Log.debug (fun m ->
      m "update %a on %a finished at %.6f (t_req %.6f)" Lb.Balancer.pp_update job.update
        Netcore.Endpoint.pp e.vip now job.started);
  Vip_table.finish t.vips e;
  refresh_oldest_started t;
  Telemetry.Registry.Counter.incr t.c_updates_completed;
  (* per-VIP scope: update churn is the figure-2 axis, so keep it
     attributable *)
  Telemetry.Registry.Counter.incr (Lazy.force e.completed);
  Dip_pool_table.gc e.pools ~current:e.current;
  clear_transit_if_idle t;
  report t ~now e job ~old_version `Completed;
  start_next_queued t ~now e

and execute_job t ~now (e : Vip_table.entry) (job : Vip_table.job) =
  let current = e.current in
  match Dip_pool_table.publish t.pools e.pools ~current job.update with
  | Ok new_version ->
    Vip_table.execute e ~new_version;
    check_job_transition t ~now e
  | Error ((`Versions_exhausted | `Bad_update _) as err) ->
    Log.warn (fun m ->
        m "update %a on %a aborted: %s" Lb.Balancer.pp_update job.update Netcore.Endpoint.pp
          e.vip
          (match err with
           | `Versions_exhausted -> "version numbers exhausted"
           | `Bad_update msg -> msg));
    Vip_table.cancel_recording t.vips e;
    refresh_oldest_started t;
    Telemetry.Registry.Counter.incr t.c_updates_failed;
    clear_transit_if_idle t;
    report t ~now e job ~old_version:current `Failed;
    start_next_queued t ~now e

(* the next step of [e]'s job, once nothing gates it *)
and check_job_transition t ~now (e : Vip_table.entry) =
  match e.phase with
  | Vip_table.Recording job when Ftbl.length job.waiting = 0 -> execute_job t ~now e job
  | Vip_table.Dual { old_version; job } when Ftbl.length job.waiting = 0 ->
    finish_job t ~now e ~old_version job
  | Vip_table.Idle | Vip_table.Recording _ | Vip_table.Dual _ -> ()

and start_job t ~now ~requested (e : Vip_table.entry) update =
  let job =
    {
      Vip_table.update;
      requested;
      started = now;
      waiting = Ftbl.create 64;
      recorded = Ftbl.create 64;
    }
  in
  Vip_table.start_recording t.vips e job;
  (* step 1 barrier: every connection of this VIP that arrived before
     the request but is not yet in ConnTable and has not ended — the
     pending set filtered by VIP. That includes a flow parked on the
     overflow queue, or left stateless after its retries ran out: it
     gates the barrier until it is inserted, fails an insert again,
     ends, expires, or the deadline force-releases it. Without a TransitTable there is
     nothing to wait for — the update executes immediately and pending
     connections are left unprotected (Figure 16's ablation). *)
  if t.cfg.Config.use_transit then
    for i = 0 to t.pending_len - 1 do
      let st = t.pending.(i) in
      if st.cs_vip == e then Ftbl.replace job.waiting st.cs_flow ()
    done;
  refresh_oldest_started t;
  check_job_transition t ~now e

(* a pending connection of [e] was installed (or abandoned): release
   any barrier waiting on it. In [Dual], [waiting] is [recorded] itself,
   so membership is read before the removal. *)
let barrier_resolved t ~now (e : Vip_table.entry) flow =
  match e.phase with
  | Vip_table.Idle -> ()
  | Vip_table.Recording job | Vip_table.Dual { job; _ } ->
    let gating = Ftbl.mem job.waiting flow in
    Ftbl.remove job.recorded flow;
    if gating then begin
      Ftbl.remove job.waiting flow;
      check_job_transition t ~now e
    end

(* ----- connection state bookkeeping ----- *)

(* [Array.append] doubles the vector: an [Array.make] too big for the
   minor heap whose filler is young (a record just created) forces a
   minor collection first *)
let add_pending t st =
  let n = t.pending_len in
  if n = Array.length t.pending then
    t.pending <- (if n = 0 then Array.make 64 st else Array.append t.pending t.pending);
  t.pending.(n) <- st;
  st.pend_pos <- n;
  t.pending_len <- n + 1

(* a new connection's state: tracked, aging, holding its version, and
   pending until it is inserted or ends. [flow] has no state yet, so
   [add] (no bucket search) leaves [flows] as [replace] would. *)
let track t ~now flow e pool =
  Telemetry.Registry.Counter.incr t.c_connections_seen;
  let st =
    {
      cs_flow = flow;
      cs_vip = e;
      cs_pool = pool;
      inserted = false;
      in_pipeline = false;
      ended = false;
      destroyed = false;
      last_seen_bits = time_bits now;
      pend_pos = -1;
      age_pos = Asic.Timer_wheel.no_pos;
    }
  in
  Ftbl.add t.flows flow st;
  add_pending t st;
  Asic.Timer_wheel.schedule t.aging ~key:st ~at:(now +. t.cfg.Config.idle_timeout);
  Dip_pool_table.retain pool;
  st

(* [inserted] or [ended] was just set: the flow is no longer pending.
   Swap-remove: the vector's last record takes the freed slot. *)
let settle t st =
  let i = st.pend_pos in
  if i >= 0 then begin
    let last = t.pending_len - 1 in
    let moved = t.pending.(last) in
    t.pending.(i) <- moved;
    moved.pend_pos <- i;
    (* the vacated cell must not keep a settled record reachable *)
    t.pending.(last) <- t.pending.(0);
    t.pending_len <- last;
    st.pend_pos <- -1
  end

let destroy_state t (st : conn_state) =
  settle t st;
  Asic.Timer_wheel.cancel t.aging ~pos:st.age_pos;
  Dip_pool_table.release st.cs_vip.pools st.cs_pool ~current:st.cs_vip.current;
  Ftbl.remove t.flows st.cs_flow;
  st.destroyed <- true

(* tear [st] down as a deletion does: its ConnTable entry when it was
   installed, any step-1 barrier it held, then its state *)
let teardown t ~now (st : conn_state) =
  if st.inserted then ignore (Conn_table.remove t.conns st.cs_flow);
  barrier_resolved t ~now st.cs_vip st.cs_flow;
  destroy_state t st

(* the state CPU work queued for [st] now acts on: [st] itself, or, once
   [st] was destroyed, whichever newer connection holds its tuple.
   Raises [Not_found] when there is none. *)
let live t st = if st.destroyed then Ftbl.find t.flows st.cs_flow else st

(* ----- control plane ----- *)

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
       | Insert_batch batch ->
         List.iter
           (fun st ->
             match live t st with
             | exception Not_found -> ()  (* state already destroyed *)
             | st ->
               st.in_pipeline <- false;
               if st.inserted then
                 (* installed meanwhile (a collision repair), possibly as
                    a newer connection on the same 5-tuple; if it has
                    ended, its own delete is queued and tears it down *)
                 ()
               else if st.ended then
                 (* flow finished before its entry was installed *)
                 teardown t ~now st
               else begin
                 (match Conn_table.insert t.conns st.cs_flow ~version:st.cs_pool.version with
                  | Ok _ | Error `Duplicate ->
                    st.inserted <- true;
                    settle t st
                  | Error `Full ->
                    (* defer to the overflow queue: the switch CPU
                       retries the insert later at its real cost
                       instead of abandoning state on first failure *)
                    if Queue.length t.overflow < overflow_cap then begin
                      Telemetry.Registry.Counter.incr t.c_insert_overflows;
                      Queue.add (st, 1) t.overflow;
                      st.in_pipeline <- true
                    end
                    else begin
                      Telemetry.Registry.Counter.incr t.c_table_full_drops;
                      Log.warn (fun m ->
                          m "ConnTable full (%.1f%%), overflow queue full: connection left \
                             stateless"
                            (100. *. Conn_table.occupancy t.conns))
                    end;
                    (* stays a pending connection; must not gate updates *)
                    st.inserted <- false);
                 barrier_resolved t ~now st.cs_vip st.cs_flow
               end)
           batch
       | Delete st ->
         (match live t st with
          | st when not st.ended ->
            (* a newer connection on the same 5-tuple: the state this
               delete was issued for was torn down while it queued
               (re-route, VIP removal), entry included *)
            ()
          | st ->
            ignore (Conn_table.remove t.conns st.cs_flow);
            barrier_resolved t ~now st.cs_vip st.cs_flow;
            destroy_state t st
          | exception Not_found -> ignore (Conn_table.remove t.conns st.cs_flow))
       | Repairs n ->
         (* repairs were applied synchronously at submission; completion
            only accounts the CPU time *)
         Telemetry.Registry.Counter.add t.c_repairs_completed n
       | Overflow_retry_batch items ->
         t.overflow_inflight <- false;
         List.iter
           (fun (st, attempts) ->
             Telemetry.Registry.Counter.incr t.c_overflow_retries;
             match live t st with
             | exception Not_found -> ()  (* state destroyed while queued *)
             | st ->
               if st.inserted then st.in_pipeline <- false
               else if st.ended then begin
                 st.in_pipeline <- false;
                 teardown t ~now st
               end
               else (
                 match Conn_table.insert t.conns st.cs_flow ~version:st.cs_pool.version with
                 | Ok _ | Error `Duplicate ->
                   st.inserted <- true;
                   settle t st;
                   st.in_pipeline <- false;
                   barrier_resolved t ~now st.cs_vip st.cs_flow
                 | Error `Full ->
                   if attempts < max_overflow_retries && Queue.length t.overflow < overflow_cap
                   then Queue.add (st, attempts + 1) t.overflow
                   else begin
                     (* give up: the connection stays stateless, the
                        paper's §7 overflow outcome *)
                     st.in_pipeline <- false;
                     Telemetry.Registry.Counter.incr t.c_table_full_drops;
                     barrier_resolved t ~now st.cs_vip st.cs_flow;
                     Log.warn (fun m ->
                         m "ConnTable full (%.1f%%) after %d insert attempts: connection left \
                            stateless"
                           (100. *. Conn_table.occupancy t.conns)
                           (attempts + 1))
                   end))
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

let submit_delete t ~now st =
  let done_at = Asic.Switch_cpu.submit t.cpu ~now ~work_items:1 in
  Queue.add (done_at, Delete st) t.cpu_done

(* [st] just left the wheel: a record in it is never destroyed, since
   destruction cancels its entry *)
let expire_one t ~now (st : conn_state) =
  if st.ended then ()
  else if now -. last_seen st >= t.cfg.Config.idle_timeout then begin
    (* no [settle]: an installed flow left the pending set when it was
       inserted, and an uninstalled one is destroyed right here *)
    st.ended <- true;
    if st.inserted then submit_delete t ~now st
    else
      (* never installed (e.g. table full): just drop the state *)
      teardown t ~now st
  end
  else
    (* saw traffic since: re-arm for the remaining idle budget *)
    Asic.Timer_wheel.schedule t.aging ~key:st ~at:(last_seen st +. t.cfg.Config.idle_timeout)

(* closure-free: the wheel returns [] on every same-tick packet *)
let rec expire_all t ~now = function
  | [] -> ()
  | st :: rest ->
    expire_one t ~now st;
    expire_all t ~now rest

let expire_idle t ~now = expire_all t ~now (Asic.Timer_wheel.advance t.aging ~now)

let release_stuck_barriers t ~now =
  let released = ref [] in
  Vip_table.iter_jobs
    (fun e job ->
      if now -. job.started > barrier_deadline && Ftbl.length job.waiting > 0 then begin
        Telemetry.Registry.Counter.incr t.c_forced_transitions;
        Log.warn (fun m ->
            m "update barrier on %a stuck for %.1fs: force-releasing %d pending connections"
              Netcore.Endpoint.pp e.vip (now -. job.started) (Ftbl.length job.waiting));
        Ftbl.reset job.waiting;
        released := e :: !released
      end)
    t.vips;
  (* the transitions run once the walk is over: they may end jobs and
     start queued ones *)
  List.iter (fun e -> check_job_transition t ~now e) (List.rev !released)

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
    if now -. t.oldest_started > barrier_deadline then release_stuck_barriers t ~now;
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
let learn t ~now (st : conn_state) =
  if not st.in_pipeline then begin
    match Asic.Learning_filter.offer t.learning ~now st.cs_flow st with
    | `Accepted ->
      st.in_pipeline <- true;
      if Asic.Learning_filter.pending t.learning >= Asic.Learning_filter.capacity t.learning
      then drain_learning t ~at:now
    | `Duplicate -> st.in_pipeline <- true
    | `Dropped -> Telemetry.Registry.Counter.incr t.c_learning_drops
  end

(* the version VIPTable + TransitTable assign to a ConnTable miss,
   encoded allocation-free as [(version lsl 2) lor how] with [how]:
   0 = plain, 1 = recorded, 2 = cpu-checked *)
let how_plain = 0
let how_recorded = 1
let how_cpu_checked = 2

let version_for_miss_code t flow (e : Vip_table.entry) ~syn =
  match e.phase with
  | Vip_table.Idle -> (e.current lsl 2) lor how_plain
  | Vip_table.Recording _ ->
    (* step 1: old pool, and remember the connection *)
    if t.cfg.Config.use_transit then Asic.Bloom_filter.add t.transit (flow_hash t flow);
    (e.current lsl 2) lor how_recorded
  | Vip_table.Dual { old_version; _ } ->
    if t.cfg.Config.use_transit && Asic.Bloom_filter.mem t.transit (flow_hash t flow) then
      if syn then
        (* a SYN cannot be a pending connection: redirect to software,
           which confirms it is new and uses the new version (§4.3) *)
        (e.current lsl 2) lor how_cpu_checked
      else (old_version lsl 2) lor how_plain
    else (e.current lsl 2) lor how_plain

(* step 1 remembers the connection in its VIP's job, to gate step 3 *)
let record (e : Vip_table.entry) flow =
  match e.phase with
  | Vip_table.Recording job -> Ftbl.replace job.recorded flow ()
  | Vip_table.Idle | Vip_table.Dual _ -> ()

let handle_miss t ~now ~ends flow e ~syn =
  let code = version_for_miss_code t flow e ~syn in
  let version = code lsr 2 in
  let how = code land 3 in
  let location =
    if how = how_cpu_checked then Lb.Balancer.Switch_cpu else Lb.Balancer.Asic
  in
  (* find + exception: pending flows take this path on every packet, and
     find_opt's [Some] box was visible in the replay allocation counters *)
  match Ftbl.find t.flows flow with
  | st ->
    (* a pending connection's later packet *)
    st.last_seen_bits <- time_bits now;
    if ends then begin
      st.ended <- true;
      settle t st
    end;
    if how = how_recorded && not st.inserted then record e flow;
    learn t ~now st;
    (* the software slow path knows the connection's true version; the
       hardware fast path forwards with the freshly computed one — if
       that differs from the connection's own, that is exactly a PCC
       hazard *)
    let version = if how = how_cpu_checked then st.cs_pool.version else version in
    forward t e ~version flow ~location
  | exception Not_found ->
    if ends then
      (* first-and-last packet: nothing worth learning *)
      forward t e ~version flow ~location
    else begin
      let st = track t ~now flow e (Dip_pool_table.lookup e.pools version) in
      if how = how_recorded then record e flow;
      learn t ~now st;
      forward t e ~version flow ~location
    end

(* a SYN falsely hit an existing entry: the switch CPU repairs the
   digest collision and installs the newcomer's own entry (§4.2) *)
let handle_false_hit_syn t ~now flow e =
  let code = version_for_miss_code t flow e ~syn:true in
  let version = code lsr 2 in
  begin
    let st =
      match Ftbl.find_opt t.flows flow with
      | Some st ->
        st.last_seen_bits <- time_bits now;
        st
      | None -> track t ~now flow e (Dip_pool_table.lookup e.pools version)
    in
    let version = st.cs_pool.version in
    (* the repair itself is applied synchronously below, but its CPU time
       goes through the shared FIFO so the backlog it causes is visible in
       the queue-delay histogram and accounted at completion *)
    let done_at = Asic.Switch_cpu.submit t.cpu ~now ~work_items:3 in
    Queue.add (done_at, Repairs 1) t.cpu_done;
    (match Conn_table.repair_collision t.conns flow ~version with
     | Ok () ->
       st.inserted <- true;
       settle t st;
       barrier_resolved t ~now e flow
     | Error `Full -> Telemetry.Registry.Counter.incr t.c_table_full_drops);
    forward t e ~version flow ~location:Lb.Balancer.Switch_cpu
  end

(* Allocation-free packet path: returns the chosen DIP, or the
   physically-unique [no_dip] sentinel on a drop (compare with [==]);
   the location is left in [t.last_location]. [process] wraps this into
   the [Lb.Balancer.outcome] record; the replay engine calls it (and
   [process_batch]) directly to keep the hot loop off the GC. The VIP's
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
      let code = Conn_table.lookup_code t.conns flow in
      if code < 0 then handle_miss t ~now ~ends flow e ~syn
      else begin
        let version = code lsr 1 in
        if code land 1 = 1 then begin
          (* exact hit *)
          (match Ftbl.find t.flows flow with
           | st ->
             st.last_seen_bits <- time_bits now;
             (* an exact hit is installed, so not pending: no [settle] *)
             if ends && not st.ended then begin
               st.ended <- true;
               submit_delete t ~now st
             end
           | exception Not_found -> ());
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

let process_batch t ~times ~tuples ~pkt_flow ~pkt_flags ~flags_of_byte ~payload_len ~idx ~dips
    ~len =
  for k = 0 to len - 1 do
    let i = idx.(k) in
    dips.(k) <-
      process_flow t ~now:times.(i)
        ~flags:flags_of_byte.(Char.code (Bytes.get pkt_flags i))
        ~payload_len
        tuples.(pkt_flow.(i))
  done

let request_update t ~now ~vip update =
  advance t ~now;
  let e =
    match Vip_table.find t.vips vip with
    | e -> e
    | exception Not_found -> invalid_arg "Switch.request_update: unknown VIP"
  in
  match e.phase with
  | Vip_table.Idle -> start_job t ~now ~requested:now e update
  | Vip_table.Recording _ | Vip_table.Dual _ -> Queue.add (now, update) e.queued

let on_update_done t f = t.update_hook <- Some f

let pending_updates t =
  let n = ref 0 in
  Vip_table.iter_jobs (fun e _ -> n := !n + 1 + Queue.length e.queued) t.vips;
  !n

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
  (* tear down tracked connections: ConnTable entries, aging timers and
     version refcounts all go through the same path a deletion takes *)
  let doomed =
    Ftbl.fold
      (fun _ (st : conn_state) acc ->
        if st.cs_vip == e then st :: acc else acc)
      t.flows []
  in
  (* an idle VIP holds no barrier, so the clock [teardown] reads is moot *)
  List.iter (teardown t ~now:t.clock) doomed;
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
  let doomed =
    Ftbl.fold
      (fun flow (st : conn_state) acc -> if select flow st.cs_vip.vip then st :: acc else acc)
      t.flows []
  in
  List.iter (teardown t ~now) doomed;
  let n = List.length doomed in
  Telemetry.Registry.Counter.add t.c_rerouted_flows n;
  n

let set_meter t ~vip ~cir ~cbs ~eir ~ebs =
  match Vip_table.find t.vips vip with
  | e -> Vip_table.set_meter e (Some (Asic.Meter.create ~cir ~cbs ~eir ~ebs))
  | exception Not_found -> invalid_arg "Switch.set_meter: unknown VIP"

let clear_meter t ~vip =
  match Vip_table.find t.vips vip with
  | e -> Vip_table.set_meter e None
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
    updates_completed = v t.c_updates_completed;
    updates_failed = v t.c_updates_failed;
    transit_clears = v t.c_transit_clears;
    forced_transitions = v t.c_forced_transitions;
  }

let connections t = Conn_table.size t.conns
let conn_table t = t.conns
let pools t = t.pools
let vip_table t = t.vips
let transit_filter t = t.transit

let memory_bits t =
  let vip_entry_bits vip = (Netcore.Endpoint.size_bytes vip * 8) + t.cfg.Config.version_bits in
  let vip_bits =
    let acc = ref 0 in
    Vip_table.iter (fun e -> acc := !acc + vip_entry_bits e.vip) t.vips;
    !acc
  in
  Conn_table.sram_bits t.conns + Dip_pool_table.sram_bits t.pools + vip_bits
  + Asic.Bloom_filter.bits t.transit

let check_invariants t =
  let problems = ref [] in
  let bad fmt = Format.kasprintf (fun s -> problems := s :: !problems) fmt in
  (* installed flows have entries; count tracked users per (vip, version) *)
  let users = Hashtbl.create 64 in
  Ftbl.iter
    (fun flow (st : conn_state) ->
      if st.inserted && not (Conn_table.mem_exact t.conns flow) then
        bad "installed connection %a has no ConnTable entry" Netcore.Five_tuple.pp flow;
      let version = st.cs_pool.version in
      let live = Dip_pool_table.lookup st.cs_vip.pools version in
      if not (Dip_pool_table.allocated st.cs_vip.pools version) then
        bad "connection %a uses dead version %d" Netcore.Five_tuple.pp flow version;
      let key = (st.cs_vip.vip, version) in
      (match Hashtbl.find_opt users key with
       | Some (_, n) -> Hashtbl.replace users key (live, n + 1)
       | None -> Hashtbl.replace users key (live, 1)))
    t.flows;
  (* refcounts match tracked users *)
  Hashtbl.iter
    (fun (vip, version) ((live : Dip_pool_table.info), n) ->
      if live.refs <> n then
        bad "version %d of %a has refcount %d but %d tracked users" version Netcore.Endpoint.pp
          vip live.refs n)
    users;
  (* a record the pending vector or the aging wheel holds must be the
     one [flows] maps its tuple to *)
  let tracked (st : conn_state) =
    match Ftbl.find_opt t.flows st.cs_flow with Some s -> s == st | None -> false
  in
  (* the pending vector holds exactly the tracked flows neither inserted
     nor ended, each at the slot it records *)
  let pending = ref 0 in
  Ftbl.iter
    (fun flow (st : conn_state) ->
      if (not st.inserted) && not st.ended then begin
        incr pending;
        if st.pend_pos < 0 || st.pend_pos >= t.pending_len || t.pending.(st.pend_pos) != st then
          bad "pending connection %a missing from the pending vector" Netcore.Five_tuple.pp flow
      end)
    t.flows;
  if t.pending_len <> !pending then
    bad "pending vector holds %d flows for %d pending connections" t.pending_len !pending;
  for i = 0 to t.pending_len - 1 do
    let st = t.pending.(i) in
    if st.pend_pos <> i then
      bad "pending vector slot %d holds %a, which records slot %d" i Netcore.Five_tuple.pp
        st.cs_flow st.pend_pos;
    if st.inserted || st.ended || not (tracked st) then
      bad "pending vector holds %a, which is not pending" Netcore.Five_tuple.pp st.cs_flow
  done;
  (* every live tracked connection has exactly one aging entry, at the
     position it records: each entry's record names that entry, so no
     record has two, and the entries are exactly the tracked records
     with a position *)
  let aged = ref 0 in
  Asic.Timer_wheel.iter t.aging (fun pos (st : conn_state) ->
      if st.age_pos <> pos then
        bad "aging entry %d holds %a, which records position %d" pos Netcore.Five_tuple.pp
          st.cs_flow st.age_pos;
      if not (tracked st) then
        bad "aging entry %d holds untracked %a" pos Netcore.Five_tuple.pp st.cs_flow);
  Ftbl.iter
    (fun flow (st : conn_state) ->
      if st.age_pos <> Asic.Timer_wheel.no_pos then incr aged
      else if not st.ended then
        bad "live connection %a has no aging entry" Netcore.Five_tuple.pp flow)
    t.flows;
  if Asic.Timer_wheel.scheduled t.aging <> !aged then
    bad "aging wheel holds %d entries for %d connections with a position"
      (Asic.Timer_wheel.scheduled t.aging) !aged;
  (* ConnTable entries all belong to tracked flows *)
  if Conn_table.size t.conns > Ftbl.length t.flows then
    bad "ConnTable holds %d entries for %d tracked connections" (Conn_table.size t.conns)
      (Ftbl.length t.flows);
  (* VIP phases and current versions *)
  Vip_table.iter
    (fun (e : Vip_table.entry) ->
      if not (Dip_pool_table.allocated e.pools e.current) then
        bad "current version %d of %a not in DIPPoolTable" e.current Netcore.Endpoint.pp e.vip;
      match e.phase with
      | Vip_table.Idle when not (Queue.is_empty e.queued) ->
        bad "%a: %d updates queued on an idle VIP" Netcore.Endpoint.pp e.vip
          (Queue.length e.queued)
      | Vip_table.Idle | Vip_table.Recording _ | Vip_table.Dual _ -> ())
    t.vips;
  (* the accumulators above iterate hash tables: sort so a violation
     report reads the same regardless of table layout *)
  match List.sort String.compare !problems with
  | [] -> Ok ()
  | l -> Error l

module Ftbl = Netcore.Five_tuple.Tbl

type report = {
  ur_vip : Vip_table.entry;
  ur_update : Lb.Balancer.update;
  ur_requested : float;
  ur_finished : float;
  ur_old_version : int;
  ur_new_version : int;
  ur_outcome : [ `Completed | `Failed ];
}

type t = {
  vips : Vip_table.t;
  pools : Dip_pool_table.t;
  use_transit : bool;
  hash_seed : int;  (** the TransitTable key's hash seed *)
  transit : Asic.Bloom_filter.t;
  add_pending : Vip_table.entry -> unit Ftbl.t -> unit;
  mutable active : int;  (** VIPs out of phase [Idle]: gates the TransitTable clear *)
  mutable oldest_started : float;  (** see [oldest_started] *)
  (* serve-mode observer: called once per job as it completes or
     aborts, with virtual request/finish times and the version flip *)
  mutable hook : (report -> unit) option;
  c_completed : Telemetry.Registry.Counter.t;
  c_failed : Telemetry.Registry.Counter.t;
  c_transit_clears : Telemetry.Registry.Counter.t;
  c_forced : Telemetry.Registry.Counter.t;
}

let src = Logs.Src.create "silkroad.update_job" ~doc:"SilkRoad 3-step PCC update jobs"

module Log = (val Logs.src_log src : Logs.LOG)

(* Updates stuck behind a barrier member that will never be inserted
   (e.g. its learning event was dropped and the flow went quiet) are
   force-released after this many seconds. Counted in [forced_transitions]
   — always 0 in a healthy configuration. *)
let barrier_deadline = 5.

let create ~metrics cfg vips pools ~add_pending =
  let counter = Telemetry.Registry.counter metrics in
  {
    vips;
    pools;
    use_transit = cfg.Config.use_transit;
    hash_seed = cfg.Config.seed lxor 0x7a17;
    transit =
      Asic.Bloom_filter.create ~seed:cfg.Config.seed ~metrics
        ~bits:(cfg.Config.transit_bytes * 8) ~hashes:cfg.Config.transit_hashes ();
    add_pending;
    active = 0;
    oldest_started = infinity;
    hook = None;
    c_completed = counter "switch.updates_completed";
    c_failed = counter "switch.updates_failed";
    c_transit_clears = counter "switch.transit_clears";
    c_forced = counter "switch.forced_transitions";
  }

let transit t = t.transit
let on_done t f = t.hook <- Some f

let iter_jobs f t =
  Vip_table.iter
    (fun (e : Vip_table.entry) ->
      match e.phase with Idle -> () | Recording job | Dual { job; _ } -> f e job)
    t.vips

(* the earliest [started] among the active jobs, [infinity] with none:
   [advance] scans the VIPs for an overdue barrier only once this one is
   overdue. Cached whenever a job starts or ends. *)
let oldest_started t =
  let oldest = ref infinity in
  iter_jobs (fun _ job -> oldest := Float.min job.Vip_table.started !oldest) t;
  !oldest

(* the next step of [e]'s job, once nothing gates it *)
let rec step t ~now (e : Vip_table.entry) =
  match e.phase with
  | Recording job when Ftbl.length job.waiting = 0 -> (
    (* step 2: execute the update on VIPTable *)
    let current = e.current in
    match Dip_pool_table.publish t.pools e.pools ~current job.update with
    | Ok new_version ->
      (* step 3 waits for the connections recorded during step 1 *)
      job.waiting <- job.recorded;
      e.phase <- Dual { old_version = current; job };
      e.current <- new_version;
      step t ~now e
    | Error ((`Versions_exhausted | `Bad_update _) as err) ->
      Log.warn (fun m ->
          m "update %a on %a aborted: %s" Lb.Balancer.pp_update job.update Netcore.Endpoint.pp
            e.vip
            (match err with
             | `Versions_exhausted -> "version numbers exhausted"
             | `Bad_update msg -> msg));
      close t ~now e job ~old_version:current `Failed)
  | Dual { old_version; job } when Ftbl.length job.waiting = 0 ->
    Log.debug (fun m ->
        m "update %a on %a finished at %.6f (t_req %.6f)" Lb.Balancer.pp_update job.update
          Netcore.Endpoint.pp e.vip now job.started);
    close t ~now e job ~old_version `Completed
  | Idle | Recording _ | Dual _ -> ()

(* back to [Idle], completed from [Dual] or aborted from [Recording];
   then the VIP's next queued update starts *)
and close t ~now (e : Vip_table.entry) (job : Vip_table.job) ~old_version outcome =
  e.phase <- Idle;
  t.active <- t.active - 1;
  t.oldest_started <- oldest_started t;
  (match outcome with
   | `Completed ->
     Telemetry.Registry.Counter.incr t.c_completed;
     (* per-VIP scope: update churn is the figure-2 axis, so keep it
        attributable *)
     Telemetry.Registry.Counter.incr (Lazy.force e.completed);
     Dip_pool_table.gc e.pools ~current:e.current
   | `Failed -> Telemetry.Registry.Counter.incr t.c_failed);
  if t.active = 0 && Asic.Bloom_filter.population t.transit > 0 then begin
    Asic.Bloom_filter.clear t.transit;
    Telemetry.Registry.Counter.incr t.c_transit_clears
  end;
  (match t.hook with
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
   | None -> ());
  match Queue.take_opt e.queued with
  | None -> ()
  | Some (requested, u) -> start t ~now ~requested e u

(* step 1 barrier: every connection of this VIP that arrived before the
   request but is not yet in ConnTable and has not ended — the switch's
   pending set filtered by VIP. That includes a flow parked on the
   overflow queue: a retry that re-queues it keeps it gating, and only
   its install or the last retry giving up releases it. A flow left
   stateless after its retries ran out gates until its next learned
   insert completes, it ends or expires, or the deadline force-releases
   it. Without a TransitTable there is nothing to wait for — the update
   executes immediately and pending connections are left unprotected
   (Figure 16's ablation). *)
and start t ~now ~requested (e : Vip_table.entry) update =
  let job =
    {
      Vip_table.update;
      requested;
      started = now;
      waiting = Ftbl.create 64;
      recorded = Ftbl.create 64;
    }
  in
  e.phase <- Recording job;
  t.active <- t.active + 1;
  if t.use_transit then t.add_pending e job.waiting;
  t.oldest_started <- oldest_started t;
  step t ~now e

let request t ~now (e : Vip_table.entry) update =
  match e.phase with
  | Idle -> start t ~now ~requested:now e update
  | Recording _ | Dual _ -> Queue.add (now, update) e.queued

(* In [Dual], [waiting] is [recorded] itself, so membership is read
   before the removal. *)
let resolved t ~now (e : Vip_table.entry) flow =
  match e.phase with
  | Idle -> ()
  | Recording job | Dual { job; _ } ->
    let gating = Ftbl.mem job.waiting flow in
    Ftbl.remove job.recorded flow;
    if gating then begin
      Ftbl.remove job.waiting flow;
      step t ~now e
    end

let advance t ~now =
  if now -. t.oldest_started > barrier_deadline then begin
    let released = ref [] in
    iter_jobs
      (fun e job ->
        if now -. job.started > barrier_deadline && Ftbl.length job.waiting > 0 then begin
          Telemetry.Registry.Counter.incr t.c_forced;
          Log.warn (fun m ->
              m "update barrier on %a stuck for %.1fs: force-releasing %d pending connections"
                Netcore.Endpoint.pp e.vip (now -. job.started) (Ftbl.length job.waiting));
          Ftbl.reset job.waiting;
          released := e :: !released
        end)
      t;
    (* the transitions run once the walk is over: they may end jobs and
       start queued ones *)
    List.iter (fun e -> step t ~now e) (List.rev !released)
  end

let pending t =
  let n = ref 0 in
  iter_jobs (fun e _ -> n := !n + 1 + Queue.length e.queued) t;
  !n

let miss t flow (e : Vip_table.entry) ~syn ~record =
  match e.phase with
  | Idle -> e.current lsl 1
  | Recording job ->
    (* step 1: old pool, and remember the connection, to gate step 3 *)
    if t.use_transit then
      Asic.Bloom_filter.add t.transit (Netcore.Five_tuple.hash ~seed:t.hash_seed flow);
    if record then Ftbl.replace job.recorded flow ();
    e.current lsl 1
  | Dual { old_version; _ } ->
    if
      t.use_transit
      && Asic.Bloom_filter.mem t.transit (Netcore.Five_tuple.hash ~seed:t.hash_seed flow)
    then
      if syn then
        (* a SYN cannot be a pending connection: redirect to software,
           which confirms it is new and uses the new version (§4.3) *)
        (e.current lsl 1) lor 1
      else old_version lsl 1
    else e.current lsl 1

let check t =
  let problems = ref [] in
  let bad fmt = Format.kasprintf (fun s -> problems := s :: !problems) fmt in
  let active = ref 0 in
  Vip_table.iter
    (fun (e : Vip_table.entry) ->
      if not (Dip_pool_table.allocated e.pools e.current) then
        bad "current version %d of %a not in DIPPoolTable" e.current Netcore.Endpoint.pp e.vip;
      match e.phase with
      | Idle when not (Queue.is_empty e.queued) ->
        bad "%a: %d updates queued on an idle VIP" Netcore.Endpoint.pp e.vip
          (Queue.length e.queued)
      | Idle -> ()
      | Recording _ | Dual _ -> incr active)
    t.vips;
  if !active <> t.active then
    bad "%d VIPs out of phase Idle, but the TransitTable clear counts %d" !active t.active;
  let oldest = oldest_started t in
  if not (Float.equal oldest t.oldest_started) then
    bad "the oldest active job started at %g, but %g is cached" oldest t.oldest_started;
  !problems

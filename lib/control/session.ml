module Stepper = Harness.Replay.Stepper
module Registry = Telemetry.Registry

type phase =
  | Running
  | Drained
  | Closed

type t = {
  switches : Silkroad.Switch.t array;
  steppers : Stepper.t array;
  trace_horizon : float;
  registry : Registry.t;
  c_errors : Registry.Counter.t;
  c_dups : Registry.Counter.t;
  c_commands : (string, Registry.Counter.t) Hashtbl.t;
      (* control.commands{cmd=...} by verb, registered at a verb's first
         use so a verb never sent has no entry *)
  g_pending : Registry.Gauge.t;
  h_apply : Telemetry.Histogram.t;
  h_recycle : Telemetry.Histogram.t;
  h_transit : Telemetry.Histogram.t;
  mutable now : float;
  mutable last_seq : int;
  mutable phase : phase;
  members : (Netcore.Endpoint.t, Netcore.Endpoint.t list) Hashtbl.t;
      (* target pool membership per VIP: validated against before any
         switch call so a rejected command provably touches no state *)
  mutable vip_order : Netcore.Endpoint.t list;  (* insertion order *)
  downed : (Netcore.Endpoint.t, Netcore.Endpoint.t list) Hashtbl.t;
      (* dead DIP -> the VIPs it was withdrawn from, in order *)
  mutable watches : (Silkroad.Vip_table.entry * int * float) list;
      (* (VIP record, old version, request time): completed updates
         whose old version has not been observed recycled yet *)
}

let switch0 t = t.switches.(0)
let jobs t = Silkroad.Switch.jobs (switch0 t)

(* Population counts span 1 .. bloom bits, far beyond the latency
   histogram's default range. *)
let transit_spec = { Telemetry.Histogram.lo = 1.0; decades = 9; buckets_per_decade = 10 }

let create ?(cfg = Silkroad.Config.default) ?(shards = 1) ?(vips = []) ?trace () =
  if shards < 1 then invalid_arg "Session.create: shards must be >= 1";
  let trace =
    match trace with
    | Some tr -> tr
    | None -> Harness.Packed_trace.compile ~horizon:0. []
  in
  let sh = Stepper.make_shared ~trace ~shards in
  let switches =
    Array.init shards (fun _ ->
        let sw = Silkroad.Switch.create cfg in
        List.iter (fun (v, pool) -> Silkroad.Switch.add_vip sw v pool) vips;
        sw)
  in
  let steppers = Array.mapi (fun k sw -> Stepper.create sh ~shard:k ~batched:true sw) switches in
  let registry = Registry.create () in
  let members = Hashtbl.create 16 in
  List.iter
    (fun (v, pool) ->
      Hashtbl.replace members v (Array.to_list (Lb.Dip_pool.members pool)))
    vips;
  let t =
    {
      switches;
      steppers;
      trace_horizon = Stepper.horizon sh;
      registry;
      c_errors = Registry.counter registry "control.errors";
      c_dups = Registry.counter registry "control.duplicates";
      c_commands = Hashtbl.create 16;
      g_pending = Registry.gauge registry "control.pending_updates";
      h_apply = Registry.histogram registry "control.update_apply_seconds";
      h_recycle = Registry.histogram registry "control.version_recycle_seconds";
      h_transit = Registry.histogram registry ~spec:transit_spec "control.transit_population";
      now = 0.;
      last_seq = -1;
      phase = Running;
      members;
      vip_order = List.map fst vips;
      downed = Hashtbl.create 8;
      watches = [];
    }
  in
  Silkroad.Update_job.on_done (jobs t) (fun r ->
      Telemetry.Histogram.observe t.h_apply (r.ur_finished -. r.ur_requested);
      match r.ur_outcome with
      | `Completed when r.ur_old_version <> r.ur_new_version ->
          t.watches <- (r.ur_vip, r.ur_old_version, r.ur_requested) :: t.watches
      | `Completed | `Failed -> ());
  t

let now t = t.now
let drained t = t.phase <> Running
let closed t = t.phase = Closed
let switches t = Array.copy t.switches
let pending_updates t = Silkroad.Update_job.pending (jobs t)

let counts t =
  Harness.Replay.sum_counts (Array.to_list (Array.map Stepper.counts t.steppers))

let control_metrics t = t.registry

let switch_metrics t =
  Registry.merge_all
    (Array.to_list (Array.map Silkroad.Switch.metrics t.switches))

let metrics t = Registry.merge_all [ t.registry; switch_metrics t ]

(* ---- command application ---- *)

let each t f = Array.iter f t.steppers
let flush t = each t (fun st -> Stepper.flush_to st t.now)
let apply_ctrl t ctrl = each t (fun st -> Stepper.apply st ~at:t.now ctrl)

let ep = Netcore.Endpoint.to_string

(* A version is recycled when its pool is gone; a version that became
   current again was reused, not recycled (drop the watch silently).
   Observed at command granularity, so the latency is rounded up to the
   next command after the actual destruction. Runs after every command
   over every watch (versions pinned by long connections stay watched),
   so the list is rebuilt only when a watch settles. *)
let poll_watches t =
  let settled ((e : Silkroad.Vip_table.entry), version, _) =
    e.current = version || not (Silkroad.Dip_pool_table.allocated e.pools version)
  in
  if List.exists settled t.watches then
    t.watches <-
      List.filter
        (fun ((e : Silkroad.Vip_table.entry), version, requested) ->
          if Silkroad.Dip_pool_table.allocated e.pools version then e.current <> version
          else begin
            Telemetry.Histogram.observe t.h_recycle (t.now -. requested);
            false
          end)
        t.watches

let observe t =
  poll_watches t;
  Telemetry.Histogram.observe t.h_transit
    (float_of_int (Asic.Bloom_filter.population (Silkroad.Update_job.transit (jobs t))));
  Registry.Gauge.set t.g_pending (float_of_int (pending_updates t))

let member_list t vip = Hashtbl.find_opt t.members vip

let summary t =
  let c = counts t in
  Printf.sprintf "t=%g packets=%d dropped=%d connections=%d broken=%d violations=%d pending=%d"
    t.now c.c_packets c.c_dropped c.c_connections c.c_broken c.c_violations
    (pending_updates t)

let metric_summary t name =
  match Telemetry.Snapshot.find (Registry.snapshot (metrics t)) name with
  | None -> Error (Printf.sprintf "unknown metric %S" name)
  | Some { value = Counter n; _ } -> Ok (Printf.sprintf "%s=%d" name n)
  | Some { value = Gauge g; _ } -> Ok (Printf.sprintf "%s=%g" name g)
  | Some { value = Histogram s; _ } ->
      Ok
        (Printf.sprintf "%s count=%d sum=%g min=%g max=%g p50=%g p99=%g" name s.count s.sum
           s.min s.max s.p50 s.p99)

let drain t =
  if t.phase = Running then begin
    t.now <- Float.max t.trace_horizon t.now;
    each t (fun st -> Stepper.finish st ~now:t.now);
    t.phase <- Drained
  end;
  Ok (Printf.sprintf "drained t=%g pending=%d" t.now (pending_updates t))

let rec distinct = function
  | [] -> true
  | d :: rest -> (not (List.exists (Netcore.Endpoint.equal d) rest)) && distinct rest

let vip_add t vip dips =
  if Hashtbl.mem t.members vip then Error (Printf.sprintf "vip %s already exists" (ep vip))
  else if not (distinct dips) then Error "duplicate dip in pool"
  else begin
    flush t;
    Array.iter (fun sw -> Silkroad.Switch.add_vip sw vip (Lb.Dip_pool.of_list dips)) t.switches;
    Hashtbl.replace t.members vip dips;
    t.vip_order <- t.vip_order @ [ vip ];
    Ok (Printf.sprintf "vip %s pool=%d" (ep vip) (List.length dips))
  end

let vip_remove t vip =
  if not (Hashtbl.mem t.members vip) then Error (Printf.sprintf "unknown vip %s" (ep vip))
  else begin
    flush t;
    (* Switch.remove_vip validates (active/queued update) before any
       mutation, and every shard is in the same update state, so a raise
       from the first switch means nothing changed anywhere. *)
    match Array.iter (fun sw -> Silkroad.Switch.remove_vip sw vip) t.switches with
    | () ->
        Hashtbl.remove t.members vip;
        t.vip_order <- List.filter (fun v -> not (Netcore.Endpoint.equal v vip)) t.vip_order;
        t.watches <-
          List.filter
            (fun ((e : Silkroad.Vip_table.entry), _, _) -> not (Netcore.Endpoint.equal e.vip vip))
            t.watches;
        Ok (Printf.sprintf "vip %s removed" (ep vip))
    | exception Invalid_argument msg -> Error msg
  end

let dip_add t vip dip =
  match member_list t vip with
  | None -> Error (Printf.sprintf "unknown vip %s" (ep vip))
  | Some ms when List.exists (Netcore.Endpoint.equal dip) ms ->
      Error (Printf.sprintf "dip %s already in pool of %s" (ep dip) (ep vip))
  | Some ms ->
      apply_ctrl t (Harness.Replay.Update (vip, Lb.Balancer.Dip_add dip));
      Hashtbl.replace t.members vip (ms @ [ dip ]);
      Ok (Printf.sprintf "vip %s pool=%d" (ep vip) (List.length ms + 1))

let dip_remove t vip dip =
  match member_list t vip with
  | None -> Error (Printf.sprintf "unknown vip %s" (ep vip))
  | Some ms when not (List.exists (Netcore.Endpoint.equal dip) ms) ->
      Error (Printf.sprintf "dip %s not in pool of %s" (ep dip) (ep vip))
  | Some [ _ ] -> Error (Printf.sprintf "cannot remove the last dip of %s" (ep vip))
  | Some ms ->
      apply_ctrl t (Harness.Replay.Update (vip, Lb.Balancer.Dip_remove dip));
      Hashtbl.replace t.members vip
        (List.filter (fun d -> not (Netcore.Endpoint.equal d dip)) ms);
      Ok (Printf.sprintf "vip %s pool=%d" (ep vip) (List.length ms - 1))

let dip_replace t vip ~old_dip ~new_dip =
  match member_list t vip with
  | None -> Error (Printf.sprintf "unknown vip %s" (ep vip))
  | Some ms when not (List.exists (Netcore.Endpoint.equal old_dip) ms) ->
      Error (Printf.sprintf "dip %s not in pool of %s" (ep old_dip) (ep vip))
  | Some ms when List.exists (Netcore.Endpoint.equal new_dip) ms ->
      Error (Printf.sprintf "dip %s already in pool of %s" (ep new_dip) (ep vip))
  | Some ms ->
      apply_ctrl t (Harness.Replay.Update (vip, Lb.Balancer.Dip_replace { old_dip; new_dip }));
      Hashtbl.replace t.members vip
        (List.map (fun d -> if Netcore.Endpoint.equal d old_dip then new_dip else d) ms);
      Ok (Printf.sprintf "vip %s pool=%d" (ep vip) (List.length ms))

let health_down t dip =
  if Hashtbl.mem t.downed dip then Error (Printf.sprintf "dip %s already down" (ep dip))
  else begin
    let containing =
      List.filter
        (fun v ->
          match member_list t v with
          | Some ms -> List.exists (Netcore.Endpoint.equal dip) ms
          | None -> false)
        t.vip_order
    in
    if containing = [] then Error (Printf.sprintf "dip %s not in any pool" (ep dip))
    else begin
      (* Withdraw from every pool it does not hold up alone; a pool may
         not go empty, so there the DIP stays and only PCC learns it is
         dead (the exclusion every removal already carries). *)
      let affected =
        List.filter
          (fun v -> List.length (Option.get (member_list t v)) > 1)
          containing
      in
      if affected = [] then apply_ctrl t (Harness.Replay.Dip_dead dip)
      else
        List.iter
          (fun vip ->
            apply_ctrl t (Harness.Replay.Update (vip, Lb.Balancer.Dip_remove dip));
            Hashtbl.replace t.members vip
              (List.filter
                 (fun d -> not (Netcore.Endpoint.equal d dip))
                 (Option.get (member_list t vip))))
          affected;
      Hashtbl.replace t.downed dip affected;
      Ok (Printf.sprintf "down %s withdrawn_from=%d" (ep dip) (List.length affected))
    end
  end

let health_up t dip =
  match Hashtbl.find_opt t.downed dip with
  | None -> Error (Printf.sprintf "dip %s is not down" (ep dip))
  | Some vips ->
      let restored =
        List.filter
          (fun vip ->
            match member_list t vip with
            | Some ms when not (List.exists (Netcore.Endpoint.equal dip) ms) ->
                apply_ctrl t (Harness.Replay.Update (vip, Lb.Balancer.Dip_add dip));
                Hashtbl.replace t.members vip (ms @ [ dip ]);
                true
            | Some _ | None -> false)
          vips
      in
      Hashtbl.remove t.downed dip;
      Ok (Printf.sprintf "up %s restored_to=%d" (ep dip) (List.length restored))

let apply t (cmd : Protocol.command) =
  match (t.phase, cmd) with
  | Closed, _ -> Error "session closed"
  | _, Quit ->
      t.phase <- Closed;
      Ok "bye"
  | _, Stats None -> Ok (summary t)
  | _, Stats (Some name) -> metric_summary t name
  | _, Drain -> drain t
  | Drained, _ -> Error "session drained"
  | Running, Vip_add (vip, dips) -> vip_add t vip dips
  | Running, Vip_remove vip -> vip_remove t vip
  | Running, Dip_add (vip, dip) -> dip_add t vip dip
  | Running, Dip_remove (vip, dip) -> dip_remove t vip dip
  | Running, Dip_replace { vip; old_dip; new_dip } -> dip_replace t vip ~old_dip ~new_dip
  | Running, Health (`Down, dip) -> health_down t dip
  | Running, Health (`Up, dip) -> health_up t dip
  | Running, Advance dt ->
      t.now <- t.now +. dt;
      flush t;
      Ok (Printf.sprintf "t=%g" t.now)

let verb : Protocol.command -> string = function
  | Vip_add _ -> "vip-add"
  | Vip_remove _ -> "vip-remove"
  | Dip_add _ -> "dip-add"
  | Dip_remove _ -> "dip-remove"
  | Dip_replace _ -> "dip-replace"
  | Health (`Down, _) -> "health-down"
  | Health (`Up, _) -> "health-up"
  | Advance _ -> "advance"
  | Stats _ -> "stats"
  | Drain -> "drain"
  | Quit -> "quit"

let mutating : Protocol.command -> bool = function
  | Stats _ -> false
  | Vip_add _ | Vip_remove _ | Dip_add _ | Dip_remove _ | Dip_replace _ | Health _
  | Advance _ | Drain | Quit ->
      true

let command_counter t cmd =
  let v = verb cmd in
  match Hashtbl.find_opt t.c_commands v with
  | Some c -> c
  | None ->
      let c = Registry.counter t.registry ~labels:[ ("cmd", v) ] "control.commands" in
      Hashtbl.replace t.c_commands v c;
      c

let exec t { Protocol.seq; cmd } =
  Registry.Counter.incr (command_counter t cmd);
  match seq with
  | Some n when n <= t.last_seq ->
      Registry.Counter.incr t.c_dups;
      { Protocol.rseq = seq; body = Ok "duplicate" }
  | _ ->
      let result = apply t cmd in
      (match (result, seq) with
      | Ok _, Some n when mutating cmd -> t.last_seq <- n
      | _ -> ());
      observe t;
      (match result with Error _ -> Registry.Counter.incr t.c_errors | Ok _ -> ());
      { Protocol.rseq = seq; body = result }

let exec_line t s =
  match Protocol.parse s with
  | Ok None -> None
  | Ok (Some line) -> Some (exec t line)
  | Error msg ->
      Registry.Counter.incr t.c_errors;
      Some { Protocol.rseq = None; body = Error msg }

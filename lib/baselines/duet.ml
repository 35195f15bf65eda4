type migrate_policy =
  | Migrate_every of float
  | Migrate_pcc

type stats = {
  slb_packets : int;
  slb_bytes : int;
  switch_packets : int;
  switch_bytes : int;
  migrations : int;
}

type vip_state = {
  mutable switch_pool : Lb.Dip_pool.t;  (** what the ASIC ECMP currently hashes over *)
  mutable slb_pool : Lb.Dip_pool.t;  (** the SLB's (up-to-date) VIPTable *)
  mutable at_slb : bool;
  mutable redirect_since : float;
  mutable last_update : float;  (** execution time of the most recent update *)
  (* updates requested but not yet executed (waiting out the grace
     period), as (execute_time, update), FIFO *)
  mutable pending : (float * Lb.Balancer.update) list;
  conns : (Netcore.Five_tuple.t, Netcore.Endpoint.t) Hashtbl.t;  (** SLB ConnTable *)
  (* connections whose recorded DIP differs from what the current pool
     would hash them to — exactly the ones a migration would break;
     rebuilt on each pool change, maintained incrementally otherwise *)
  old_conns : (Netcore.Five_tuple.t, unit) Hashtbl.t;
}

(* the redirect-to-execute wait: longer than the harness's 15 s probe
   interval, so every ongoing connection is snooped before an update
   executes *)
let grace = 30.

type state = {
  seed : int;
  policy : migrate_policy;
  vips : (Netcore.Endpoint.t, vip_state) Hashtbl.t;
  metrics : Telemetry.Registry.t;
  c_slb_packets : Telemetry.Registry.Counter.t;
  c_slb_bytes : Telemetry.Registry.Counter.t;
  c_switch_packets : Telemetry.Registry.Counter.t;
  c_switch_bytes : Telemetry.Registry.Counter.t;
  c_migrations : Telemetry.Registry.Counter.t;
  c_lb_packets : Telemetry.Registry.Counter.t;
  c_lb_dropped : Telemetry.Registry.Counter.t;
}

let get_vip state vip =
  match Hashtbl.find_opt state.vips vip with
  | Some vs -> vs
  | None ->
    let vs =
      {
        switch_pool = Lb.Dip_pool.of_list [];
        slb_pool = Lb.Dip_pool.of_list [];
        at_slb = false;
        redirect_since = 0.;
        last_update = neg_infinity;
        pending = [];
        conns = Hashtbl.create 64;
        old_conns = Hashtbl.create 64;
      }
    in
    Hashtbl.replace state.vips vip vs;
    vs

(* Rebuild the old-connection set after a pool change. *)
let rebuild_old_conns state vs =
  Hashtbl.reset vs.old_conns;
  if Lb.Dip_pool.is_empty vs.slb_pool then
    Hashtbl.iter (fun flow _ -> Hashtbl.replace vs.old_conns flow ()) vs.conns
  else
    Hashtbl.iter
      (fun flow dip ->
        let now_dip = Lb.Dip_pool.select_flow ~seed:state.seed vs.slb_pool flow in
        if not (Netcore.Endpoint.equal now_dip dip) then Hashtbl.replace vs.old_conns flow ())
      vs.conns

let migrate_back state vs =
  vs.at_slb <- false;
  vs.switch_pool <- vs.slb_pool;
  Hashtbl.reset vs.conns;
  Hashtbl.reset vs.old_conns;
  Telemetry.Registry.Counter.incr state.c_migrations

let advance_vip state ~now vs =
  (* Execute pending updates whose grace period has elapsed. *)
  let rec exec () =
    match vs.pending with
    | (at, u) :: rest when at <= now ->
      vs.slb_pool <- Lb.Balancer.apply_update vs.slb_pool u;
      vs.last_update <- at;
      vs.pending <- rest;
      rebuild_old_conns state vs;
      exec ()
    | _ :: _ | [] -> ()
  in
  exec ();
  if vs.at_slb && vs.pending = [] then begin
    match state.policy with
    | Migrate_every period ->
      (* migration events fire on global period boundaries *)
      let next_boundary = (Float.floor (vs.redirect_since /. period) +. 1.) *. period in
      if now >= next_boundary && now >= vs.last_update then migrate_back state vs
    | Migrate_pcc ->
      (* safe only once every ongoing connection has been snooped (the
         grace covers the max inter-packet gap) and none is old *)
      if now >= vs.redirect_since +. grace && Hashtbl.length vs.old_conns = 0 then
        migrate_back state vs
  end

let advance state ~now = Hashtbl.iter (fun _ vs -> advance_vip state ~now vs) state.vips

let account_outcome state (o : Lb.Balancer.outcome) =
  (match o.Lb.Balancer.dip with
   | Some _ -> Telemetry.Registry.Counter.incr state.c_lb_packets
   | None -> Telemetry.Registry.Counter.incr state.c_lb_dropped);
  o

let process state ~now (pkt : Netcore.Packet.t) =
  let flow = pkt.Netcore.Packet.flow in
  let vip = flow.Netcore.Five_tuple.dst in
  match Hashtbl.find_opt state.vips vip with
  | None -> account_outcome state { Lb.Balancer.dip = None; location = Lb.Balancer.Asic }
  | Some vs ->
    advance_vip state ~now vs;
    if vs.at_slb then begin
      Telemetry.Registry.Counter.incr state.c_slb_packets;
      Telemetry.Registry.Counter.add state.c_slb_bytes (Netcore.Packet.wire_size pkt);
      let finish dip =
        account_outcome state { Lb.Balancer.dip; location = Lb.Balancer.Slb }
      in
      match Hashtbl.find_opt vs.conns flow with
      | Some dip ->
        if Netcore.Tcp_flags.is_connection_end pkt.Netcore.Packet.flags then begin
          Hashtbl.remove vs.conns flow;
          Hashtbl.remove vs.old_conns flow
        end;
        finish (Some dip)
      | None ->
        if Lb.Dip_pool.is_empty vs.slb_pool then finish None
        else begin
          let dip = Lb.Dip_pool.select_flow ~seed:state.seed vs.slb_pool flow in
          if not (Netcore.Tcp_flags.is_connection_end pkt.Netcore.Packet.flags) then
            Hashtbl.replace vs.conns flow dip;
          finish (Some dip)
        end
    end
    else begin
      Telemetry.Registry.Counter.incr state.c_switch_packets;
      Telemetry.Registry.Counter.add state.c_switch_bytes (Netcore.Packet.wire_size pkt);
      if Lb.Dip_pool.is_empty vs.switch_pool then
        account_outcome state { Lb.Balancer.dip = None; location = Lb.Balancer.Asic }
      else
        let dip = Lb.Dip_pool.select_flow ~seed:state.seed vs.switch_pool flow in
        account_outcome state { Lb.Balancer.dip = Some dip; location = Lb.Balancer.Asic }
    end

let update state ~now ~vip u =
  let vs = get_vip state vip in
  if not vs.at_slb then begin
    (* Redirect the VIP's traffic to the SLBs; the update executes after
       the grace period, by which time ongoing connections have been
       snooped into the SLB ConnTable. *)
    vs.at_slb <- true;
    vs.redirect_since <- now;
    Hashtbl.reset vs.conns
  end;
  let exec_at = Float.max (now +. 1e-6) (vs.redirect_since +. grace) in
  (* keep FIFO order even if several updates land in the same grace *)
  let exec_at =
    match List.rev vs.pending with
    | (last, _) :: _ when last > exec_at -> last
    | _ -> exec_at
  in
  vs.pending <- vs.pending @ [ (exec_at, u) ]

let create ~seed ~policy ~vips () =
  let reg = Telemetry.Registry.create () in
  let state =
    {
      seed;
      policy;
      vips = Hashtbl.create 16;
      metrics = reg;
      c_slb_packets = Telemetry.Registry.counter reg "duet.slb_packets";
      c_slb_bytes = Telemetry.Registry.counter reg "duet.slb_bytes";
      c_switch_packets = Telemetry.Registry.counter reg "duet.switch_packets";
      c_switch_bytes = Telemetry.Registry.counter reg "duet.switch_bytes";
      c_migrations = Telemetry.Registry.counter reg "duet.migrations";
      c_lb_packets = Telemetry.Registry.counter reg "lb.packets";
      c_lb_dropped = Telemetry.Registry.counter reg "lb.dropped_packets";
    }
  in
  List.iter
    (fun (vip, pool) ->
      let vs = get_vip state vip in
      vs.switch_pool <- pool;
      vs.slb_pool <- pool)
    vips;
  let balancer =
    {
      Lb.Balancer.name =
        (match policy with
         | Migrate_every p -> Printf.sprintf "duet-migrate-%.0fs" p
         | Migrate_pcc -> "duet-migrate-pcc");
      advance = (fun ~now -> advance state ~now);
      process = (fun ~now pkt -> process state ~now pkt);
      update = (fun ~now ~vip u -> update state ~now ~vip u);
      connections =
        (fun () -> Hashtbl.fold (fun _ vs acc -> acc + Hashtbl.length vs.conns) state.vips 0);
      metrics = (fun () -> state.metrics);
      (* Duet's switch path is stateless ECMP and its SLBs are modeled
         without a capacity bound here: nothing to stall *)
      disturb = (fun ~now:_ _ -> ());
    }
  in
  let stats () =
    let v = Telemetry.Registry.Counter.value in
    {
      slb_packets = v state.c_slb_packets;
      slb_bytes = v state.c_slb_bytes;
      switch_packets = v state.c_switch_packets;
      switch_bytes = v state.c_switch_bytes;
      migrations = v state.c_migrations;
    }
  in
  (balancer, stats)

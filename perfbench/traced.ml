(* The traced run: the workload's switch calls re-driven from a
   bench-local loop that times every public entry point it crosses.

   The loop makes the same calls, in the same per-switch order, as the
   untraced engine it shadows — Replay.run's steppers, a serve
   Session, or Netwide.Replay.run — except that each packet gets an
   explicit Switch.advance before Switch.process_flow, splitting the
   control-plane catch-up (learning drain, CPU completions, inserts,
   aging) from the lookup itself. The inner advance process_flow then
   makes is a no-op at the same [now]. The DIPs are recorded and judged
   after the timed loop with Lb.Pcc, so the judge costs nothing here.
   The result must reproduce the untraced run's telemetry snapshot
   byte-for-byte, PCC counts included.

   Spans: one root (the traced wall), under it aggregated leaf spans
   (per-packet advance / SYN / data calls, control applications, route
   computation, switch creation, protocol parsing). Leaves have no
   children, so their self time is their duration, and the root's self
   time is the unattributed remainder: loop, gather, clock reads. *)

module Replay = Harness.Replay
module Packed_trace = Harness.Packed_trace
module Registry = Telemetry.Registry
module Histogram = Telemetry.Histogram
module Switch = Silkroad.Switch
module Topology = Netwide.Topology

(* an aggregated span: calls, wall nanoseconds, minor words *)
type agg = {
  mutable calls : int;
  mutable ns : int;
  mutable words : int;
}

let agg () = { calls = 0; ns = 0; words = 0 }

let add a ~ns ~words =
  a.calls <- a.calls + 1;
  a.ns <- a.ns + ns;
  a.words <- a.words + words

(* time [f] as one call of [a] *)
let span a f =
  let w0 = Gc.minor_words () in
  let c0 = Clock.now_ns () in
  let x = f () in
  let c1 = Clock.now_ns () in
  let w1 = Gc.minor_words () in
  add a ~ns:(c1 - c0) ~words:(int_of_float (w1 -. w0));
  x

type spans = {
  advance : agg;  (** Switch.advance before each packet, and at the horizon *)
  syn : agg;  (** Switch.process_flow on connection-start packets *)
  data : agg;  (** Switch.process_flow on every other packet *)
  control : agg;  (** one call per control: advance + exclusion + request_update/backlog *)
  route : agg;  (** one call per flow owner computed (Route.owner on the fabric) *)
  create : agg;  (** Switch.create + add_vip, one call per switch *)
  parse : agg;  (** Control.Protocol.parse, one call per serve line *)
}

let leaves s =
  [ ("switch.advance", s.advance); ("switch.process_flow.syn", s.syn);
    ("switch.process_flow.data", s.data); ("control.apply", s.control);
    ("route.owner", s.route); ("switch.create", s.create); ("control.parse", s.parse) ]

type result = {
  wall_ns : int;
  spans : spans;
  advance_hist : Histogram.t;
  process_hist : Histogram.t;
  node_ns : int array;  (** per switch: advance + process_flow nanoseconds *)
  control_ns : int list;  (** each control application, in order *)
  tracked_at_update : int list;  (** installed connections before each update *)
  counts : Replay.counts;
  registry : Registry.t;  (** the identity snapshot's registry *)
  telemetry : string;
  moved_flows : int;
  switches : Switch.t list;  (** every switch the run created *)
}

type routing =
  | Single  (** one switch owns every flow *)
  | Fabric of Topology.t

let payload_len = 1024

type engine = {
  inputs : Workloads.inputs;
  routing : routing;
  s : spans;
  adv_h : Histogram.t;
  proc_h : Histogram.t;
  own : Registry.t;
  registries : Registry.t option array;
  switches : Switch.t option array;
  mutable created : Switch.t list;
  pools : (Netcore.Endpoint.t, Lb.Dip_pool.t) Hashtbl.t;  (** current pool per VIP *)
  owner : int array;  (** per flow: owning switch, -1 when undeliverable *)
  flow_vip : Netcore.Endpoint.t array;
  dips : Netcore.Endpoint.t array;  (** per packet: the switch's answer *)
  node_ns : int array;
  mutable cursor : int;
  mutable exclusions : (int * Netcore.Endpoint.t) list;  (** (packet position, removed DIP) *)
  mutable control_ns : int list;
  mutable tracked : int list;
  mutable moved : int;
  t_start : int;
}

let flag_tbl = Array.init 256 Netcore.Tcp_flags.of_byte

let n_nodes = function Single -> 1 | Fabric topo -> Topology.n_nodes topo

(* does switch [id] host VIP state: a single switch does; in a fabric, nodes
   of a layer some VIP is placed on *)
let hosts e id =
  match e.routing with
  | Single -> true
  | Fabric topo ->
    let pos = topo.Topology.nodes.(id).Topology.layer_pos in
    List.exists (fun (vip, _) -> Topology.layer_of_vip topo vip = pos) topo.Topology.vips

let vips_of_node e id =
  match e.routing with
  | Single -> e.inputs.Workloads.vips
  | Fabric topo ->
    let pos = topo.Topology.nodes.(id).Topology.layer_pos in
    List.filter_map
      (fun (vip, _) ->
        if Topology.layer_of_vip topo vip = pos then Some (vip, Hashtbl.find e.pools vip) else None)
      topo.Topology.vips

(* a fresh switch; the node's registry survives a down/up cycle *)
let ensure_switch e id =
  match e.switches.(id) with
  | Some sw -> sw
  | None ->
    let reg =
      match e.registries.(id) with
      | Some r -> r
      | None ->
        let r = Registry.create () in
        e.registries.(id) <- Some r;
        r
    in
    let sw =
      span e.s.create (fun () ->
          let sw = Switch.create ~metrics:reg e.inputs.Workloads.cfg in
          List.iter (fun (vip, pool) -> Switch.add_vip sw vip pool) (vips_of_node e id);
          sw)
    in
    e.switches.(id) <- Some sw;
    e.created <- sw :: e.created;
    sw

let iter_live e f = Array.iter (function Some sw -> f sw | None -> ()) e.switches

let recompute_owners e =
  let tuples = e.inputs.Workloads.trace.Packed_trace.flow_tuples in
  let n = Array.length tuples in
  let moved =
    span e.s.route (fun () ->
        let moved = ref 0 in
        for f = 0 to n - 1 do
          let o =
            match e.routing with
            | Single -> 0
            | Fabric topo ->
              (match Netwide.Route.owner topo ~vip:e.flow_vip.(f) tuples.(f) with
               | Some node -> node.Topology.node_id
               | None -> -1)
          in
          if o <> e.owner.(f) then incr moved;
          e.owner.(f) <- o
        done;
        !moved)
  in
  (* one call per flow *)
  e.s.route.calls <- e.s.route.calls + n - 1;
  moved

let create inputs routing =
  let trace = inputs.Workloads.trace in
  let n = n_nodes routing in
  let pools = Hashtbl.create 16 in
  List.iter (fun (vip, pool) -> Hashtbl.replace pools vip pool) inputs.Workloads.vips;
  let e =
    {
      inputs;
      routing;
      s =
        { advance = agg (); syn = agg (); data = agg (); control = agg (); route = agg ();
          create = agg (); parse = agg () };
      adv_h = Histogram.create ();
      proc_h = Histogram.create ();
      own = Registry.create ();
      registries = Array.make n None;
      switches = Array.make n None;
      created = [];
      pools;
      owner = Array.make (Packed_trace.n_flows trace) (-1);
      flow_vip = Array.map (fun v -> trace.Packed_trace.vips.(v)) trace.Packed_trace.flow_vip;
      dips = Array.make (Packed_trace.n_packets trace) Switch.no_dip;
      node_ns = Array.make n 0;
      cursor = 0;
      exclusions = [];
      control_ns = [];
      tracked = [];
      moved = 0;
      t_start = Clock.now_ns ();
    }
  in
  (* switches exist where VIP state lives, before any packet *)
  for id = 0 to n - 1 do
    let up =
      match routing with Single -> true | Fabric topo -> topo.Topology.nodes.(id).Topology.up
    in
    if up && hosts e id then ignore (ensure_switch e id)
  done;
  ignore (recompute_owners e);
  e

(* the per-packet path: every packet with time <= [at], in trace order *)
let flush_to e at =
  let trace = e.inputs.Workloads.trace in
  let times = trace.Packed_trace.times
  and pkt_flow = trace.Packed_trace.pkt_flow
  and pkt_flags = trace.Packed_trace.pkt_flags
  and tuples = trace.Packed_trace.flow_tuples in
  let n = Array.length times in
  let s = e.s in
  while e.cursor < n && times.(e.cursor) <= at do
    let i = e.cursor in
    let f = pkt_flow.(i) in
    let o = e.owner.(f) in
    if o >= 0 then begin
      let sw = ensure_switch e o in
      let now = times.(i) in
      let flags = flag_tbl.(Char.code (Bytes.get pkt_flags i)) in
      let tuple = tuples.(f) in
      let w0 = Gc.minor_words () in
      let c0 = Clock.now_ns () in
      Switch.advance sw ~now;
      let c1 = Clock.now_ns () in
      let w1 = Gc.minor_words () in
      let dip = Switch.process_flow sw ~now ~flags ~payload_len tuple in
      let c2 = Clock.now_ns () in
      let w2 = Gc.minor_words () in
      e.dips.(i) <- dip;
      add s.advance ~ns:(c1 - c0) ~words:(int_of_float (w1 -. w0));
      add
        (if Netcore.Tcp_flags.is_connection_start flags then s.syn else s.data)
        ~ns:(c2 - c1) ~words:(int_of_float (w2 -. w1));
      e.node_ns.(o) <- e.node_ns.(o) + (c2 - c0);
      Histogram.observe e.adv_h (float_of_int (c1 - c0) *. 1e-9);
      Histogram.observe e.proc_h (float_of_int (c2 - c1) *. 1e-9)
    end;
    e.cursor <- i + 1
  done

let exclude e dip = e.exclusions <- (e.cursor, dip) :: e.exclusions

(* the Replay.Stepper / Netwide.Replay control semantics *)
let control e ~at (ctrl : Replay.control) =
  flush_to e at;
  (match ctrl with
   | Replay.Update _ ->
     let installed = ref 0 in
     iter_live e (fun sw -> installed := !installed + Switch.connections sw);
     e.tracked <- !installed :: e.tracked
   | _ -> ());
  let before = e.s.control.ns in
  span e.s.control (fun () ->
      match ctrl with
      | Replay.Update (vip, u) ->
        iter_live e (fun sw -> Switch.advance sw ~now:at);
        (match u with
         | Lb.Balancer.Dip_remove d | Lb.Balancer.Dip_replace { old_dip = d; _ } -> exclude e d
         | Lb.Balancer.Dip_add _ -> ());
        (match Hashtbl.find_opt e.pools vip with
         | Some pool -> Hashtbl.replace e.pools vip (Lb.Balancer.apply_update pool u)
         | None -> ());
        iter_live e (fun sw ->
            if Switch.has_vip sw vip then Switch.request_update sw ~now:at ~vip u)
      | Replay.Cpu_backlog n ->
        iter_live e (fun sw ->
            Switch.advance sw ~now:at;
            Switch.inject_cpu_backlog sw ~now:at ~work_items:n)
      | Replay.Dip_dead _ | Replay.Attack_syn _ | Replay.Reroute _ ->
        invalid_arg "Traced.control: control not used by any workload");
  e.control_ns <- (e.s.control.ns - before) :: e.control_ns

(* Netwide.Replay's topology events *)
let event e ~at (ev : Netwide.Replay.event) =
  flush_to e at;
  let topo = match e.routing with Fabric t -> t | Single -> invalid_arg "Traced.event" in
  let nw name = Registry.counter e.own ("netwide." ^ name) in
  (match ev with
   | Netwide.Replay.Switch_down id ->
     Registry.Counter.incr (nw "switch_downs");
     Topology.set_up topo ~node_id:id false;
     e.switches.(id) <- None
   | Netwide.Replay.Switch_up id ->
     Registry.Counter.incr (nw "switch_ups");
     Topology.set_up topo ~node_id:id true;
     if hosts e id then ignore (ensure_switch e id)
   | Netwide.Replay.Vip_move _ -> invalid_arg "Traced.event: VIP moves are not used");
  let moved = recompute_owners e in
  e.moved <- e.moved + moved;
  Registry.Counter.add (nw "moved_flows") moved

(* the rest of the trace, the horizon advance, then the judge *)
let finish e =
  let trace = e.inputs.Workloads.trace in
  flush_to e infinity;
  iter_live e (fun sw ->
      span e.s.advance (fun () -> Switch.advance sw ~now:trace.Packed_trace.horizon));
  let wall_ns = Clock.now_ns () - e.t_start in
  (* Lb.Pcc over the recorded DIPs, with each DIP removal applied at the
     packet position it was applied at during the run *)
  let pcc = Lb.Pcc.create () in
  let exclusions = ref (List.rev e.exclusions) in
  let dropped = ref 0 in
  Array.iteri
    (fun i dip ->
      let rec excl () =
        match !exclusions with
        | (pos, d) :: rest when pos <= i ->
          Lb.Pcc.on_dip_removed pcc ~dip:d;
          exclusions := rest;
          excl ()
        | _ -> ()
      in
      excl ();
      let flow_id = trace.Packed_trace.pkt_flow.(i) in
      if dip == Switch.no_dip then begin
        incr dropped;
        Lb.Pcc.on_packet pcc ~flow_id ~dip:None
      end
      else Lb.Pcc.on_packet pcc ~flow_id ~dip:(Some dip);
      if
        Netcore.Tcp_flags.is_connection_end
          flag_tbl.(Char.code (Bytes.get trace.Packed_trace.pkt_flags i))
      then Lb.Pcc.on_finish pcc ~flow_id)
    e.dips;
  let counts =
    { Replay.c_packets = Array.length e.dips; c_dropped = !dropped;
      c_connections = Lb.Pcc.total pcc; c_broken = Lb.Pcc.broken pcc;
      c_violations = Lb.Pcc.violations pcc }
  in
  Workloads.add_counts e.own counts;
  let registry =
    Registry.merge_all (e.own :: List.filter_map Fun.id (Array.to_list e.registries))
  in
  {
    wall_ns;
    spans = e.s;
    advance_hist = e.adv_h;
    process_hist = e.proc_h;
    node_ns = e.node_ns;
    control_ns = List.rev e.control_ns;
    tracked_at_update = List.rev e.tracked;
    counts;
    registry;
    telemetry = Registry.to_json registry;
    moved_flows = e.moved;
    switches = List.rev e.created;
  }

(* one traced run of the workload *)
let run (w : Workloads.t) (inputs : Workloads.inputs) =
  Gc.compact ();
  match w.Workloads.kind with
  | Workloads.Replay -> finish (create inputs Single)
  | Workloads.Serve ->
    let e = create inputs Single in
    (* the session's clock: advances accumulate exactly as Session does *)
    let now = ref 0. in
    List.iter
      (fun line ->
        match span e.s.parse (fun () -> Control.Protocol.parse line) with
        | Ok (Some { Control.Protocol.cmd; _ }) ->
          (match cmd with
           | Control.Protocol.Advance dt ->
             now := !now +. dt;
             flush_to e !now
           | Control.Protocol.Dip_add (vip, d) ->
             control e ~at:!now (Replay.Update (vip, Lb.Balancer.Dip_add d))
           | Control.Protocol.Dip_remove (vip, d) ->
             control e ~at:!now (Replay.Update (vip, Lb.Balancer.Dip_remove d))
           | Control.Protocol.Dip_replace { vip; old_dip; new_dip } ->
             control e ~at:!now
               (Replay.Update (vip, Lb.Balancer.Dip_replace { old_dip; new_dip }))
           | Control.Protocol.Drain -> ()
           | _ -> invalid_arg "Traced.run: command not used by serve-churn")
        | Ok None -> ()
        | Error m -> invalid_arg ("Traced.run: " ^ m))
      inputs.Workloads.script;
    finish e
  | Workloads.Netwide ->
    let e = create inputs (Fabric (Workloads.build_topology inputs)) in
    (* Netwide.Replay's order: stable by time, controls before events *)
    let actions =
      List.stable_sort
        (fun (a, _) (b, _) -> Float.compare a b)
        (List.map (fun (t, c) -> (t, `Control c)) inputs.Workloads.controls
        @ List.map (fun (t, ev) -> (t, `Event ev)) inputs.Workloads.events)
    in
    List.iter
      (fun (at, action) ->
        match action with
        | `Control c -> control e ~at c
        | `Event ev -> event e ~at ev)
      actions;
    finish e

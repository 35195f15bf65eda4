(* The four benchmark workloads: what each generates from the seed, how
   one untimed set-up builds its inputs, and how one timed repetition
   drives the program through its public entry point.

   Every workload is deterministic for a given seed and scale, so the
   repetitions of one run must agree on every PCC count and on the
   switch telemetry snapshot; only the wall clock may differ. *)

module Common = Experiments.Common
module Replay = Harness.Replay
module Packed_trace = Harness.Packed_trace
module Registry = Telemetry.Registry

type scale =
  | Full
  | Tiny

type kind =
  | Replay
  | Serve
  | Netwide

type t = {
  name : string;
  kind : kind;
}

(* Why each exists is recorded in BENCHMARK.json and perfbench/README.md.
   Every measured section runs on one domain: on a small shared host a
   second domain measures the scheduler (each minor collection waits for
   both), not the program. *)
let all =
  [ { name = "replay-full-table"; kind = Replay };
    { name = "serve-churn"; kind = Serve };
    { name = "netwide-failover"; kind = Netwide } ]

let find name = List.find_opt (fun w -> String.equal w.name name) all

(* ----- sizes ----- *)

type sizes = {
  replay_rate : float;  (** new connections per second per VIP *)
  replay_seconds : float;  (** arrival window of the replay trace *)
  table_rows : int;  (** ConnTable rows per stage for the replay workloads *)
  serve_rate : float;
  serve_seconds : float;
  netwide_flows : int;
  tor_rows : int;  (** ConnTable rows per stage on each ToR of the fabric *)
}

(* Full: each repetition takes about a second on one core, so a 30 s
   run holds twenty or more. The replay table
   (2 stages x rows x 4 ways) is sized so the live-connection peak at
   the end of the arrival window fills ~90% of it — below the ~97% cliff
   where inserts spill into the overflow queue and the run slows by an
   order of magnitude. A ToR's table holds 32K connections, a quarter
   full at the failover: the fabric's per-switch tables stay small, and
   creating four switches does not dominate the run. Tiny: the
   self-test, seconds for all three. *)
let sizes = function
  | Full ->
    { replay_rate = 500.; replay_seconds = 30.; table_rows = 3584; serve_rate = 250.;
      serve_seconds = 30.; netwide_flows = 30_000; tor_rows = 4096 }
  | Tiny ->
    { replay_rate = 25.; replay_seconds = 10.; table_rows = 256; serve_rate = 25.;
      serve_seconds = 5.; netwide_flows = 400; tor_rows = 256 }

let n_vips = 4
let dips_per_vip = 8

(* ----- inputs ----- *)

type inputs = {
  trace : Packed_trace.t;
  cfg : Silkroad.Config.t;
  vips : (Netcore.Endpoint.t * Lb.Dip_pool.t) list;
  arrivals_end : float;  (** last connection arrival: the probes pause here *)
  script : string list;  (** serve-churn: the command lines, in order *)
  controls : (float * Replay.control) list;  (** netwide-failover *)
  events : (float * Netwide.Replay.event) list;  (** netwide-failover *)
  layers : Silkroad.Assignment.layer list;  (** netwide-failover *)
}

(* how long each set-up phase took, seconds *)
type setup_times = {
  generate_s : float;
  compile_s : float;
  build_s : float;  (** Session.create / Topology.build; 0 for replay *)
}

(* ----- serve-churn: the update script ----- *)

(* Per VIP, round-robin, one update per cadence tick: remove a member,
   add it back (absorbed by version reuse), then replace one member with
   a never-seen DIP (its old version must drain and recycle). A local
   mirror of each pool keeps every command valid. Four 1/1024 s ticks
   after each update walk virtual time through the update's window; all
   steps are dyadic, so they sum to exactly one cadence. A final drain
   replays the rest of the trace, so the script covers every packet. *)
let churn_script ~vips ~seconds =
  let cadence = 1. /. 16. and tick = 1. /. 1024. in
  let vip_arr = Array.of_list vips in
  let nv = Array.length vip_arr in
  let n_updates = int_of_float (seconds /. cadence) in
  let render cmd = Control.Protocol.render { Control.Protocol.seq = None; cmd } in
  let members =
    Array.map (fun (_, pool) -> ref (Array.to_list (Lb.Dip_pool.members pool))) vip_arr
  in
  let removed = Array.make nv None in
  let fresh = ref 0 in
  List.concat
    (List.init n_updates (fun step ->
         let v = step mod nv in
         let vip = fst vip_arr.(v) and ms = members.(v) in
         let per = step / nv in
         let nth k = List.nth !ms (k mod List.length !ms) in
         let cmd =
           match per mod 3 with
           | 0 ->
             let d = nth (per / 3) in
             ms := List.filter (fun x -> not (Netcore.Endpoint.equal x d)) !ms;
             removed.(v) <- Some d;
             Control.Protocol.Dip_remove (vip, d)
           | 1 ->
             let d = Option.get removed.(v) in
             ms := !ms @ [ d ];
             Control.Protocol.Dip_add (vip, d)
           | _ ->
             incr fresh;
             let old_dip = nth (per / 3) in
             let new_dip = Common.dip (9000 + !fresh) in
             ms := List.map (fun x -> if Netcore.Endpoint.equal x old_dip then new_dip else x) !ms;
             Control.Protocol.Dip_replace { vip; old_dip; new_dip }
         in
         render (Control.Protocol.Advance (cadence -. (4. *. tick)))
         :: render cmd
         :: List.init 4 (fun _ -> render (Control.Protocol.Advance tick))))
  @ [ render Control.Protocol.Drain ]

let is_update_line line =
  match Control.Protocol.parse line with
  | Ok (Some { Control.Protocol.cmd = Dip_add _ | Dip_remove _ | Dip_replace _; _ }) -> true
  | Ok _ | Error _ -> false

(* ----- netwide-failover: flows, topology, events ----- *)

(* Clients with seeded random sources (not the replay generator's
   Poisson arrivals): starts uniform over [0, span), 0.5-60.5 s long,
   one probe a second. *)
let netwide_flows ~seed ~n ~span vips =
  let rng = Random.State.make [| seed; 0x5eed |] in
  let vips = Array.of_list vips in
  List.init n (fun id ->
      let vip, _ = vips.(Random.State.int rng (Array.length vips)) in
      let src =
        Netcore.Endpoint.v4
          (1 + Random.State.int rng 200)
          (Random.State.int rng 250) (Random.State.int rng 250)
          (1 + Random.State.int rng 250)
          (1024 + Random.State.int rng 50000)
      in
      {
        Simnet.Flow.id;
        tuple = Netcore.Five_tuple.make ~src ~dst:vip ~proto:Netcore.Protocol.Tcp;
        start = Random.State.float rng span;
        duration = 0.5 +. Random.State.float rng 60.;
        bytes_per_sec = 1000.;
      })

let netwide_span = 25.
let netwide_horizon = 120.

(* 50 MB of LB SRAM per ToR; a zero budget marks a pure transit layer *)
let netwide_layers =
  let layer name switches sram_budget_bits =
    { Silkroad.Assignment.layer_name = name; switches; sram_budget_bits; capacity_gbps = 10_000. }
  in
  [ layer "core" 1 0; layer "agg" 2 0; layer "tor" 4 (50 * 8 * 1024 * 1024) ]

let build_topology inputs = Netwide.Topology.build ~layers:inputs.layers ~vips:inputs.vips ()

(* ----- set-up ----- *)

let setup w ~scale ~seed =
  let sz = sizes scale in
  let vips = Common.vips_of ~n_vips ~dips_per_vip in
  let empty =
    { trace = Packed_trace.compile ~horizon:0. []; cfg = Silkroad.Config.default; vips;
      arrivals_end = 0.; script = []; controls = []; events = []; layers = [] }
  in
  let scenario ~rate ~seconds () =
    (Common.scenario ~seed ~n_vips ~dips_per_vip ~conns_per_sec_per_vip:rate ~updates_per_min:0.
       ~trace_seconds:seconds ())
  in
  let compile ~horizon flows = Clock.time (fun () -> Packed_trace.compile ~horizon flows) in
  match w.kind with
  | Replay ->
    let s, generate_s = Clock.time (scenario ~rate:sz.replay_rate ~seconds:sz.replay_seconds) in
    let trace, compile_s = compile ~horizon:s.Common.horizon s.Common.flows in
    let cfg = { Silkroad.Config.default with conn_table_rows = sz.table_rows } in
    ( { empty with trace; cfg; arrivals_end = sz.replay_seconds },
      { generate_s; compile_s; build_s = 0. } )
  | Serve ->
    let (s, script), generate_s =
      Clock.time (fun () ->
          let s = scenario ~rate:sz.serve_rate ~seconds:sz.serve_seconds () in
          (s, churn_script ~vips ~seconds:sz.serve_seconds))
    in
    let trace, compile_s = compile ~horizon:s.Common.horizon s.Common.flows in
    let inputs = { empty with trace; script; arrivals_end = sz.serve_seconds } in
    (* the session a user would open; each repetition opens its own *)
    let _, build_s = Clock.time (fun () -> Control.Session.create ~vips ~trace ()) in
    (inputs, { generate_s; compile_s; build_s })
  | Netwide ->
    let flows, generate_s =
      Clock.time (fun () -> netwide_flows ~seed ~n:sz.netwide_flows ~span:netwide_span vips)
    in
    let trace, compile_s =
      Clock.time (fun () ->
          Packed_trace.compile ~probe_interval:1. ~horizon:netwide_horizon flows)
    in
    let vip0, pool0 = List.hd vips in
    let removed = (Lb.Dip_pool.members pool0).(0) in
    let controls =
      (29., Replay.Cpu_backlog 1_000_000)
      :: Replay.controls_of_updates ~horizon:netwide_horizon
           [ (30.4, vip0, Lb.Balancer.Dip_remove removed) ]
    in
    let cfg = { Silkroad.Config.default with conn_table_rows = sz.tor_rows } in
    let inputs =
      { empty with trace; cfg; arrivals_end = netwide_span; controls; layers = netwide_layers }
    in
    let topo, build_s = Clock.time (fun () -> build_topology inputs) in
    let first_tor = (topo.Netwide.Topology.layer_nodes.(2).(0)).Netwide.Topology.node_id in
    let events =
      [ (30., Netwide.Replay.Switch_down first_tor); (90., Netwide.Replay.Switch_up first_tor) ]
    in
    ({ inputs with events }, { generate_s; compile_s; build_s })

(* ----- one timed repetition ----- *)

type rep = {
  wall_s : float;  (** the measured section *)
  packets : int;  (** judged packets processed inside the measured section *)
  counts : Replay.counts;  (** final PCC accounting (serve: after the untimed drain) *)
  telemetry : string;
      (** identity snapshot: the replay and netwide counters merged with
          every switch registry — what a traced run must reproduce *)
  minor_words : float;  (** measured section *)
  update_ms : float list;  (** serve: wall latency of each update command *)
  moved_flows : int;  (** netwide: flow re-homings *)
  problem : string option;  (** a failed correctness check *)
}

(* the replay.* counters Replay.run and Netwide.Replay.run register *)
let add_counts own (c : Replay.counts) =
  let add name v = Registry.Counter.add (Registry.counter own name) v in
  add "replay.packets" c.Replay.c_packets;
  add "replay.dropped_packets" c.Replay.c_dropped;
  add "replay.connections" c.Replay.c_connections;
  add "replay.broken_connections" c.Replay.c_broken;
  add "replay.violation_packets" c.Replay.c_violations

let make_switch inputs () =
  let sw = Silkroad.Switch.create inputs.cfg in
  List.iter (fun (vip, pool) -> Silkroad.Switch.add_vip sw vip pool) inputs.vips;
  sw

let counts_of_replay (r : Replay.result) =
  { Replay.c_packets = r.Replay.packets; c_dropped = r.Replay.dropped;
    c_connections = r.Replay.connections; c_broken = r.Replay.broken;
    c_violations = r.Replay.violations }

let counts_of_netwide (r : Netwide.Replay.result) =
  { Replay.c_packets = r.Netwide.Replay.packets; c_dropped = r.Netwide.Replay.dropped;
    c_connections = r.Netwide.Replay.connections; c_broken = r.Netwide.Replay.broken;
    c_violations = r.Netwide.Replay.violations }

let run_once w inputs =
  Gc.compact ();
  let words0 = Gc.minor_words () in
  match w.kind with
  | Replay ->
    let r, wall_s =
      Clock.time (fun () ->
          Replay.run ~mode:Replay.Batch ~make_switch:(make_switch inputs) ~trace:inputs.trace
            ~controls:[] ())
    in
    { wall_s; packets = r.Replay.packets; counts = counts_of_replay r;
      telemetry = Registry.to_json r.Replay.telemetry;
      minor_words = Gc.minor_words () -. words0; update_ms = []; moved_flows = 0;
      problem = None }
  | Serve ->
    let session = Control.Session.create ~vips:inputs.vips ~trace:inputs.trace () in
    let words0 = Gc.minor_words () in
    let latency_ms = Array.make (List.length inputs.script) 0. and problem = ref None in
    let (), wall_s =
      Clock.time (fun () ->
          List.iteri
            (fun i line ->
              let t0 = Clock.now_ns () in
              let resp = Control.Session.exec_line session line in
              latency_ms.(i) <- Clock.seconds_since t0 *. 1e3;
              match resp with
              | Some { Control.Protocol.body = Error m; _ } ->
                if !problem = None then problem := Some (Printf.sprintf "%S rejected: %s" line m)
              | Some { Control.Protocol.body = Ok _; _ } | None -> ())
            inputs.script)
    in
    let minor_words = Gc.minor_words () -. words0 in
    let update_ms =
      List.concat
        (List.mapi (fun i l -> if is_update_line l then [ latency_ms.(i) ] else []) inputs.script)
    in
    if not (Control.Session.drained session) && !problem = None then
      problem := Some "the script did not drain the session";
    let counts = Control.Session.counts session in
    let own = Registry.create () in
    add_counts own counts;
    { wall_s; packets = counts.Replay.c_packets; counts;
      telemetry =
        Registry.to_json (Registry.merge_all [ own; Control.Session.switch_metrics session ]);
      minor_words; update_ms; moved_flows = 0; problem = !problem }
  | Netwide ->
    let topo = build_topology inputs in
    let words0 = Gc.minor_words () in
    let r, wall_s =
      Clock.time (fun () ->
          Netwide.Replay.run ~cfg:inputs.cfg ~parallel:false ~events:inputs.events
            ~controls:inputs.controls ~topo ~trace:inputs.trace ())
    in
    let problem =
      if r.Netwide.Replay.moved_flows = 0 then Some "the failover re-homed no flows"
      else None
    in
    { wall_s; packets = r.Netwide.Replay.packets; counts = counts_of_netwide r;
      telemetry = Registry.to_json r.Netwide.Replay.telemetry;
      minor_words = Gc.minor_words () -. words0; update_ms = [];
      moved_flows = r.Netwide.Replay.moved_flows; problem }

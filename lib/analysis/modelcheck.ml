(* Bounded exhaustive model checker for the §4.3 update machinery.

   Every enumerated schedule runs on a fresh Silkroad.Switch, so the
   checker judges the implementation itself, not a copy of it: PCC by
   Lb.Pcc.Flat on every packet, the version-recycle property by
   Switch.check_invariants after every event, and the liveness valve by
   the switch's own forced_transitions counter. Install and delete
   completions are the switch's own timing, not free interleaving
   choices, so every explored schedule is a replayable trace. *)

module Ep = Netcore.Endpoint
module Ft = Netcore.Five_tuple
module Pool = Lb.Dip_pool
module Sw = Silkroad.Switch
module Stepper = Harness.Replay.Stepper

type regime = {
  rg_name : string;
  cpu_rate : float;
  learn_timeout : float;
  gap : float;
}

type pattern = {
  pat_name : string;
  collide : bool;
  alias : bool;
}

type scope = {
  sc_name : string;
  sc_updates : int;
  sc_flow_packets : int list;
  sc_regimes : regime list;
  sc_patterns : pattern list;
}

type mutation = Transit_insert_disabled | Barrier_force_release | Eager_version_gc

let mutations = [ Transit_insert_disabled; Barrier_force_release; Eager_version_gc ]

let mutation_name = function
  | Transit_insert_disabled -> "transit-insert-disabled"
  | Barrier_force_release -> "barrier-force-release"
  | Eager_version_gc -> "eager-version-gc"

type event =
  | Pkt of { eflow : int; esyn : bool; eends : bool }
  | Upd of int

(* ----- the fixed small world ----- *)

let model_vip = Ep.v4 10 0 0 1 80
let n_dips = 6
let model_dips () = Array.init n_dips (fun i -> Ep.v4 20 0 0 (i + 1) 8080)

let verify_config ?(use_transit = true) ~cpu_rate ~learn_timeout () =
  {
    Silkroad.Config.digest_bits = 6;
    version_bits = 3;
    conn_table_stages = 2;
    conn_table_rows = 64;
    conn_table_ways = 2;
    (* 4 bytes = 32 bits: dense enough that digest collisions and Bloom
       aliases exist within the searchable 5-tuple space *)
    transit_bytes = 4;
    transit_hashes = 2;
    learning_capacity = 64;
    learning_timeout = learn_timeout;
    cpu_insertions_per_sec = cpu_rate;
    idle_timeout = 600.;
    use_transit;
    seed = 11;
  }

(* ----- regimes ----- *)

(* All three keep worst-case CPU backlog well under
   Update_job.barrier_deadline, so shipped semantics never force-releases a
   barrier inside the scope (asserted by check_scope). *)
let rg_fast = { rg_name = "fast"; cpu_rate = 200.; learn_timeout = 0.01; gap = 0.25 }
let rg_medium = { rg_name = "medium"; cpu_rate = 8.; learn_timeout = 0.1; gap = 0.25 }
let rg_slow = { rg_name = "slow"; cpu_rate = 2.; learn_timeout = 0.3; gap = 0.25 }

(* Pathological: 10 s per install against the 5 s barrier deadline,
   with a grid wide enough that a packet lands between the forced
   release and the install completion. *)
let rg_stuck = { rg_name = "stuck"; cpu_rate = 0.1; learn_timeout = 0.05; gap = 3.0 }

let pat_plain = { pat_name = "plain"; collide = false; alias = false }
let pat_collide = { pat_name = "collide"; collide = true; alias = false }
let pat_alias = { pat_name = "alias"; collide = false; alias = true }
let pat_both = { pat_name = "collide+alias"; collide = true; alias = true }

let default_scopes =
  [
    {
      sc_name = "3u4p";
      sc_updates = 3;
      sc_flow_packets = [ 2; 2 ];
      sc_regimes = [ rg_fast; rg_medium; rg_slow ];
      sc_patterns = [ pat_plain; pat_collide; pat_alias; pat_both ];
    };
    {
      sc_name = "3u5p";
      sc_updates = 3;
      sc_flow_packets = [ 3; 2 ];
      sc_regimes = [ rg_fast; rg_slow ];
      sc_patterns = [ pat_plain; pat_collide ];
    };
  ]

let mutation_scope mu =
  let sc_name, sc_regimes =
    match mu with
    | Transit_insert_disabled -> ("3u4p/no-transit", [ rg_medium; rg_slow ])
    | Barrier_force_release -> ("3u4p/stuck", [ rg_stuck ])
    | Eager_version_gc -> ("3u4p/eager-gc", [ rg_medium; rg_slow ])
  in
  { sc_name; sc_updates = 3; sc_flow_packets = [ 2; 2 ]; sc_regimes; sc_patterns = [ pat_plain ] }

(* ----- flow search -----

   Candidate 5-tuples to the model VIP, scanned deterministically.
   Properties are checked against scratch instances of the real
   ConnTable / Bloom filter, so "collide" and "alias" mean exactly what
   they mean on the real switch under the same config. *)

let candidate i =
  let srcb = 1 + (i / 60000) and port = 1024 + (i mod 60000) in
  Ft.make ~src:(Ep.v4 192 168 0 srcb port) ~dst:model_vip ~proto:Netcore.Protocol.Tcp

let max_candidates = 60000 * 60

let flow_hash_of cfg flow =
  (* Switch.flow_hash: the transit-filter key *)
  Ft.hash ~seed:(cfg.Silkroad.Config.seed lxor 0x7a17) flow

let scratch_bloom cfg =
  Asic.Bloom_filter.create ~seed:cfg.Silkroad.Config.seed
    ~bits:(cfg.Silkroad.Config.transit_bytes * 8)
    ~hashes:cfg.Silkroad.Config.transit_hashes ()

let shares_probe ct a b =
  let pa = Silkroad.Conn_table.probe_positions ct a in
  let pb = Silkroad.Conn_table.probe_positions ct b in
  List.exists (fun p -> List.mem p pb) pa

(* recording [a] makes [b] falsely hit the transit filter *)
let bloom_aliases cfg bloom a b =
  Asic.Bloom_filter.clear bloom;
  Asic.Bloom_filter.add bloom (flow_hash_of cfg a);
  Asic.Bloom_filter.mem bloom (flow_hash_of cfg b)

let select cfg pool flow = Pool.select_flow ~seed:cfg.Silkroad.Config.seed pool flow

let removed_dips k =
  let dips = model_dips () in
  Array.sub dips 0 k

let pool_full () = Pool.of_list (Array.to_list (model_dips ()))

(* victim: first DIP survives every removal, yet the first removal
   remaps it (ECMP reshuffle) — the §4.3 hazard made flesh *)
let find_victim cfg k =
  let removed = removed_dips k in
  let p0 = pool_full () in
  let p1 = Pool.remove p0 removed.(0) in
  let surviving d = not (Array.exists (Ep.equal d) removed) in
  let rec go i =
    if i >= max_candidates then failwith "Modelcheck: no victim flow in search space"
    else
      let f = candidate i in
      let d0 = select cfg p0 f in
      if surviving d0 && not (Ep.equal d0 (select cfg p1 f)) then f else go (i + 1)
  in
  go 0

(* a colliding companion must really falsely hit the victim's installed
   entry: sharing a probe position is not enough when the entry sits in
   the other stage *)
let find_companion cfg k ~victim ~collide ~alias =
  let removed = removed_dips k in
  let p0 = pool_full () in
  let surviving d = not (Array.exists (Ep.equal d) removed) in
  let ct = Silkroad.Conn_table.create cfg in
  ignore (Silkroad.Conn_table.insert ct victim ~version:0);
  let false_hit f =
    match Silkroad.Conn_table.lookup ct f with
    | Some { Silkroad.Conn_table.exact = false; _ } -> true
    | Some _ | None -> false
  in
  let bloom = scratch_bloom cfg in
  let rec go i =
    if i >= max_candidates then failwith "Modelcheck: no companion flow in search space"
    else
      let f = candidate i in
      if
        (not (Ft.equal f victim))
        && surviving (select cfg p0 f)
        && collide = shares_probe ct victim f
        && ((not collide) || false_hit f)
        && alias = bloom_aliases cfg bloom victim f
      then f
      else go (i + 1)
  in
  go 0

(* memoized per (pattern, k): the flow search is deterministic but the
   collide+alias pattern can scan a few hundred thousand candidates *)
let flow_cache : (bool * bool * int, Ft.t array) Hashtbl.t = Hashtbl.create 8

let scope_flows cfg k pat =
  match Hashtbl.find_opt flow_cache (pat.collide, pat.alias, k) with
  | Some fs -> fs
  | None ->
    let victim = find_victim cfg k in
    let companion = find_companion cfg k ~victim ~collide:pat.collide ~alias:pat.alias in
    let fs = [| victim; companion |] in
    Hashtbl.replace flow_cache (pat.collide, pat.alias, k) fs;
    fs

(* ----- one schedule on the real switch ----- *)

let flags_of ~esyn ~eends =
  if esyn then Netcore.Tcp_flags.syn
  else if eends then Netcore.Tcp_flags.fin
  else Netcore.Tcp_flags.data

(* The Eager_version_gc mutation, realized in the checker: when an
   update completes, drop the old version's remaining references until
   DIPPoolTable destroys it, although connections still use it. *)
let release_old_version (r : Silkroad.Update_job.report) =
  if r.ur_outcome = `Completed && r.ur_old_version <> r.ur_new_version then begin
    let vs = r.ur_vip.Silkroad.Vip_table.pools in
    let old = Silkroad.Dip_pool_table.lookup vs r.ur_old_version in
    for _ = 1 to old.Silkroad.Dip_pool_table.refs do
      Silkroad.Dip_pool_table.release vs old ~current:r.ur_new_version
    done
  end

type run_result = {
  rr_violations : int;
  rr_recycle : bool;
  rr_stats : Sw.stats;
}

let horizon_of events = (match List.rev events with (t, _) :: _ -> t | [] -> 0.) +. 1.0

(* The schedule's packets as a packed trace, in event order: event
   times are (i+1)*gap, so they are unique and already sorted. The
   horizon is one second past the last event. *)
let trace_of ~vip ~flows events =
  let pkts =
    Array.of_list
      (List.filter_map
         (function
           | t, Pkt { eflow; esyn; eends } ->
             Some (t, eflow, Char.chr (Netcore.Tcp_flags.to_byte (flags_of ~esyn ~eends)))
           | _, Upd _ -> None)
         events)
  in
  let n_flows = Array.length flows in
  {
    Harness.Packed_trace.horizon = horizon_of events;
    vips = [| vip |];
    flow_ids = Array.init n_flows Fun.id;
    flow_vip = Array.make n_flows 0;
    flow_tuples = Array.copy flows;
    flow_rate = Array.make n_flows 0.;
    times = Array.map (fun (t, _, _) -> t) pkts;
    pkt_flow = Array.map (fun (_, fi, _) -> fi) pkts;
    pkt_flags = Bytes.init (Array.length pkts) (fun i -> let _, _, c = pkts.(i) in c);
  }

(* The schedule runs on Harness.Replay.Stepper: a packet event flushes
   exactly its one packet, an update event is the stepper's [Update]
   control. [Switch.check_invariants] runs after every event; the run
   stops at the first failure, or at DIPPoolTable's own
   [Invalid_argument] on a release of a destroyed version. *)
let run_switch ~cfg ~eager_gc ~flows ~removed ~events =
  let sw = Sw.create ~check:`Off cfg in
  Sw.add_vip sw model_vip (pool_full ());
  if eager_gc then Silkroad.Update_job.on_done (Sw.jobs sw) release_old_version;
  let sh = Stepper.make_shared ~trace:(trace_of ~vip:model_vip ~flows events) ~shards:1 in
  let st = Stepper.create sh ~shard:0 ~batched:false sw in
  let step (t, ev) =
    match ev with
    | Pkt _ -> Stepper.flush_to st t
    | Upd j ->
      Stepper.apply st ~at:t (Harness.Replay.Update (model_vip, Lb.Balancer.Dip_remove removed.(j)))
  in
  let sound () = Result.is_ok (Sw.check_invariants sw) in
  let recycle =
    match
      List.for_all
        (fun ev ->
          step ev;
          sound ())
        events
      &&
      (Stepper.finish st ~now:(Stepper.horizon sh);
       sound ())
    with
    | ok -> not ok
    | exception Invalid_argument _ -> true
  in
  {
    rr_violations = (Stepper.counts st).Harness.Replay.c_violations;
    rr_recycle = recycle;
    rr_stats = Sw.stats sw;
  }

(* ----- enumeration ----- *)

(* all interleavings of the per-flow packet sequences and the (ordered)
   update sequence; streams 0..n-1 are flows, stream n is updates *)
let each_order ~flow_packets ~updates k =
  let n = List.length flow_packets in
  let remaining = Array.of_list (flow_packets @ [ updates ]) in
  let acc = ref [] in
  let rec go left =
    if left = 0 then k (List.rev !acc)
    else
      for s = 0 to n do
        if remaining.(s) > 0 then begin
          remaining.(s) <- remaining.(s) - 1;
          acc := s :: !acc;
          go (left - 1);
          acc := List.tl !acc;
          remaining.(s) <- remaining.(s) + 1
        end
      done
  in
  go (List.fold_left ( + ) updates flow_packets)

let events_of_order ~flow_packets ~gap order =
  let n = List.length flow_packets in
  let lens = Array.of_list flow_packets in
  let pkt_seen = Array.make n 0 in
  let upd_seen = ref 0 in
  List.mapi
    (fun i s ->
      let t = float_of_int (i + 1) *. gap in
      if s < n then begin
        let j = pkt_seen.(s) in
        pkt_seen.(s) <- j + 1;
        (t, Pkt { eflow = s; esyn = j = 0; eends = j = lens.(s) - 1 && lens.(s) > 1 })
      end
      else begin
        let j = !upd_seen in
        incr upd_seen;
        (t, Upd j)
      end)
    order

(* ----- checking ----- *)

type counterexample = {
  ce_mutation : mutation option;
  ce_scope : string;
  ce_regime : regime;
  ce_pattern : pattern;
  ce_cfg : Silkroad.Config.t;
  ce_vip : Ep.t;
  ce_dips : Ep.t array;
  ce_removed : Ep.t array;
  ce_flows : Ft.t array;
  ce_events : (float * event) list;
  ce_kind : [ `Pcc | `Recycle ];
  ce_violations : int;
}

type outcome = {
  oc_runs : int;
  oc_events : int;
  oc_violating : int;
  oc_recycled : int;
  oc_forced : int;
  oc_false_hits : int;
  oc_repairs : int;
  oc_counterexamples : counterexample list;
}

let max_counterexamples = 8

let regime_config ?(use_transit = true) rg =
  verify_config ~use_transit ~cpu_rate:rg.cpu_rate ~learn_timeout:rg.learn_timeout ()


(* The stuck regime force-releases barriers by design, and the update
   job logs a warning for each; enumeration runs with the switch's and
   the update job's log sources at Error so the report is not buried. *)
let quietly f =
  let srcs =
    List.filter
      (fun s -> List.mem (Logs.Src.name s) [ "silkroad.switch"; "silkroad.update_job" ])
      (Logs.Src.list ())
  in
  let levels = List.map Logs.Src.level srcs in
  List.iter (fun src -> Logs.Src.set_level src (Some Logs.Error)) srcs;
  Fun.protect ~finally:(fun () -> List.iter2 Logs.Src.set_level srcs levels) f

let check_scope ?mutation scope =
  quietly @@ fun () ->
  let use_transit = mutation <> Some Transit_insert_disabled in
  let eager_gc = mutation = Some Eager_version_gc in
  let removed = removed_dips scope.sc_updates in
  let runs = ref 0 and events_total = ref 0 in
  let violating = ref 0 and recycled = ref 0 and forced = ref 0 in
  let false_hits = ref 0 and repairs = ref 0 in
  let ces = ref [] in
  List.iter
    (fun rg ->
      let cfg = regime_config ~use_transit rg in
      List.iter
        (fun pat ->
          (* flows are searched under the shipped (transit-on) config:
             collide/alias are data-plane properties, independent of the
             mutation knobs *)
          let flows = scope_flows (regime_config rg) scope.sc_updates pat in
          each_order ~flow_packets:scope.sc_flow_packets ~updates:scope.sc_updates
            (fun order ->
              let events = events_of_order ~flow_packets:scope.sc_flow_packets ~gap:rg.gap order in
              let r = run_switch ~cfg ~eager_gc ~flows ~removed ~events in
              incr runs;
              events_total := !events_total + List.length events;
              if r.rr_stats.Sw.forced_transitions > 0 then incr forced;
              if r.rr_stats.Sw.false_hits > 0 then incr false_hits;
              if r.rr_stats.Sw.collision_repairs > 0 then incr repairs;
              let kind =
                if r.rr_recycle then Some `Recycle
                else if r.rr_violations > 0 then Some `Pcc
                else None
              in
              (match kind with
               | None -> ()
               | Some k ->
                 (match k with `Pcc -> incr violating | `Recycle -> incr recycled);
                 if List.length !ces < max_counterexamples then
                   ces :=
                     {
                       ce_mutation = mutation;
                       ce_scope = scope.sc_name;
                       ce_regime = rg;
                       ce_pattern = pat;
                       ce_cfg = cfg;
                       ce_vip = model_vip;
                       ce_dips = model_dips ();
                       ce_removed = removed;
                       ce_flows = flows;
                       ce_events = events;
                       ce_kind = k;
                       ce_violations = r.rr_violations;
                     }
                     :: !ces)))
        scope.sc_patterns)
    scope.sc_regimes;
  {
    oc_runs = !runs;
    oc_events = !events_total;
    oc_violating = !violating;
    oc_recycled = !recycled;
    oc_forced = !forced;
    oc_false_hits = !false_hits;
    oc_repairs = !repairs;
    oc_counterexamples = List.rev !ces;
  }

(* ----- realizing counterexamples ----- *)

let ce_trace ce = trace_of ~vip:ce.ce_vip ~flows:ce.ce_flows ce.ce_events

let ce_updates ce =
  List.filter_map
    (fun (t, ev) ->
      match ev with
      | Upd j -> Some (t, ce.ce_vip, Lb.Balancer.Dip_remove ce.ce_removed.(j))
      | Pkt _ -> None)
    ce.ce_events

let ce_controls ce =
  List.map (fun (t, vip, u) -> (t, Harness.Replay.Update (vip, u))) (ce_updates ce)

let ce_script ce =
  let b = Buffer.create 512 in
  let line s =
    Buffer.add_string b s;
    Buffer.add_char b '\n'
  in
  let render cmd = line (Control.Protocol.render { Control.Protocol.seq = None; cmd }) in
  line
    (Printf.sprintf "# silkroad-verify counterexample (%s): scope=%s regime=%s pattern=%s kind=%s"
       (match ce.ce_mutation with None -> "shipped" | Some mu -> mutation_name mu)
       ce.ce_scope ce.ce_regime.rg_name ce.ce_pattern.pat_name
       (match ce.ce_kind with `Pcc -> "pcc" | `Recycle -> "recycle"));
  line
    (Printf.sprintf
       "# replay config: use_transit=%b cpu_insertions_per_sec=%g learning_timeout=%g"
       ce.ce_cfg.Silkroad.Config.use_transit ce.ce_cfg.Silkroad.Config.cpu_insertions_per_sec
       ce.ce_cfg.Silkroad.Config.learning_timeout);
  line "# packets come from the counterexample trace; this script is the control half";
  List.iter render
    ((Control.Protocol.Vip_add (ce.ce_vip, Array.to_list ce.ce_dips)
     :: Control.Protocol.of_updates (ce_updates ce))
    @ [ Control.Protocol.Drain; Control.Protocol.Stats None; Control.Protocol.Quit ]);
  Buffer.contents b

let replay_on_switch ce =
  let make_switch () =
    let sw = Silkroad.Switch.create ~check:`Off ce.ce_cfg in
    Silkroad.Switch.add_vip sw ce.ce_vip (Pool.of_list (Array.to_list ce.ce_dips));
    sw
  in
  Harness.Replay.run ~mode:Harness.Replay.Scalar ~make_switch ~trace:(ce_trace ce)
    ~controls:(ce_controls ce) ()

(* ----- the verify driver ----- *)

type report = {
  rp_shipped : (scope * outcome) list;
  rp_mutants :
    (mutation * outcome * (counterexample * Harness.Replay.result option) option) list;
  rp_diags : Diag.t list;
}

let run_verify () =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let shipped =
    List.map
      (fun sc ->
        let oc = check_scope sc in
        if oc.oc_violating > 0 then
          add
            (Diag.v ~rule:"model.pcc" ~severity:Diag.Error
               (Printf.sprintf
                  "scope %s: %d of %d interleavings violate PCC under shipped semantics"
                  sc.sc_name oc.oc_violating oc.oc_runs));
        if oc.oc_recycled > 0 then
          add
            (Diag.v ~rule:"model.recycle" ~severity:Diag.Error
               (Printf.sprintf
                  "scope %s: %d runs break a switch invariant (a version recycled while in \
                   use, or refcounts out of step)"
                  sc.sc_name oc.oc_recycled));
        if oc.oc_forced > 0 then
          add
            (Diag.v ~rule:"model.forced" ~severity:Diag.Error
               (Printf.sprintf
                  "scope %s: the barrier deadline fired inside a shipped regime (%d runs) — \
                   the scope no longer proves what it claims"
                  sc.sc_name oc.oc_forced));
        if oc.oc_violating = 0 && oc.oc_recycled = 0 && oc.oc_forced = 0 then
          add
            (Diag.v ~rule:"model.scope" ~severity:Diag.Info
               (Printf.sprintf
                  "scope %s: %d interleavings (%d events) exhausted, 0 PCC violations, 0 \
                   premature recycles"
                  sc.sc_name oc.oc_runs oc.oc_events));
        (sc, oc))
      default_scopes
  in
  let mutant_results =
    List.map
      (fun mu ->
        let oc = check_scope ~mutation:mu (mutation_scope mu) in
        let wanted =
          List.filter
            (fun ce ->
              match mu with Eager_version_gc -> ce.ce_kind = `Recycle | _ -> ce.ce_kind = `Pcc)
            oc.oc_counterexamples
        in
        (* the first counterexample already broke a real switch; replaying
           its exported trace and controls checks that the export
           reproduces it. Eager_version_gc lives in the checker's own
           update hook, which an exported trace does not carry. *)
        let killed =
          match wanted with
          | [] -> None
          | ce :: _ -> (
            match mu with
            | Eager_version_gc -> Some (ce, None)
            | Transit_insert_disabled | Barrier_force_release ->
              Some (ce, Some (replay_on_switch ce)))
        in
        (match killed with
         | Some (ce, Some r) when r.Harness.Replay.violations > 0 ->
           add
             (Diag.v ~rule:"model.mutant" ~severity:Diag.Info
                (Printf.sprintf
                   "mutant %s killed: counterexample (%s/%s/%s) breaks PCC on the real switch \
                    (%d violations, %d broken connections)"
                   (mutation_name mu) ce.ce_scope ce.ce_regime.rg_name ce.ce_pattern.pat_name
                   r.Harness.Replay.violations r.Harness.Replay.broken))
         | Some (ce, Some _) ->
           add
             (Diag.v ~rule:"model.replay" ~severity:Diag.Error
                (Printf.sprintf
                   "mutant %s: counterexample (%s/%s/%s) breaks PCC on the switch (%d \
                    violations) but its exported trace and controls do not reproduce it \
                    through Harness.Replay"
                   (mutation_name mu) ce.ce_scope ce.ce_regime.rg_name ce.ce_pattern.pat_name
                   ce.ce_violations))
         | Some (ce, None) ->
           add
             (Diag.v ~rule:"model.mutant" ~severity:Diag.Info
                (Printf.sprintf
                   "mutant %s killed: %s counterexample at %s/%s (the mutation lives in the \
                    checker's update hook, so its trace is not replayed)"
                   (mutation_name mu)
                   (match ce.ce_kind with `Pcc -> "PCC" | `Recycle -> "recycle")
                   ce.ce_scope ce.ce_regime.rg_name))
         | None ->
           add
             (Diag.v ~rule:"model.mutant-survived" ~severity:Diag.Error
                ~hint:
                  "either the mutation is not actually a defect (tighten the property) or the \
                   scope is too small to expose it (widen regimes/patterns)"
                (Printf.sprintf "mutant %s survived: %d runs on the real switch, none fails"
                   (mutation_name mu) oc.oc_runs)));
        (mu, oc, killed))
      mutations
  in
  { rp_shipped = shipped; rp_mutants = mutant_results; rp_diags = List.sort Diag.compare !diags }

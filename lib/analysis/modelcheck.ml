(* Bounded exhaustive model checker for the §4.3 update machinery.

   The model mirrors Switch's control plane one function for one
   function (advance ordering, learning batching, CPU FIFO, VIPTable
   phases, version refcounts, barrier bookkeeping) over an abstract
   ConnTable (exact hit = own entry installed; false hit = a colliding
   partner's entry installed while this flow was untracked, which is
   when the placement filter cannot veto the shadowing slot) and an
   abstract TransitTable (a set of recorded flows plus an explicit
   alias relation standing in for Bloom false positives). Because the
   async completions are computed with the real timing rules rather
   than enumerated freely, every explored schedule maps 1:1 onto a
   replayable trace. *)

module Ep = Netcore.Endpoint
module Ft = Netcore.Five_tuple
module Pool = Lb.Dip_pool

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

let mutation_model_only = function
  | Eager_version_gc -> true
  | Transit_insert_disabled | Barrier_force_release -> false

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
   Switch.barrier_deadline, so shipped semantics never force-releases a
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

let mutation_scopes = function
  | Transit_insert_disabled ->
    [
      {
        sc_name = "3u4p/no-transit";
        sc_updates = 3;
        sc_flow_packets = [ 2; 2 ];
        sc_regimes = [ rg_medium; rg_slow ];
        sc_patterns = [ pat_plain ];
      };
    ]
  | Barrier_force_release ->
    [
      {
        sc_name = "3u4p/stuck";
        sc_updates = 3;
        sc_flow_packets = [ 2; 2 ];
        sc_regimes = [ rg_stuck ];
        sc_patterns = [ pat_plain ];
      };
    ]
  | Eager_version_gc ->
    [
      {
        sc_name = "3u4p/eager-gc";
        sc_updates = 3;
        sc_flow_packets = [ 2; 2 ];
        sc_regimes = [ rg_medium; rg_slow ];
        sc_patterns = [ pat_plain ];
      };
    ]

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

let find_companion cfg k ~victim ~collide ~alias =
  let removed = removed_dips k in
  let p0 = pool_full () in
  let surviving d = not (Array.exists (Ep.equal d) removed) in
  let ct = Silkroad.Conn_table.create cfg in
  let bloom = scratch_bloom cfg in
  let rec go i =
    if i >= max_candidates then failwith "Modelcheck: no companion flow in search space"
    else
      let f = candidate i in
      if
        (not (Ft.equal f victim))
        && surviving (select cfg p0 f)
        && collide = shares_probe ct victim f
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

let conformance_flows ~cfg ~n =
  let ct = Silkroad.Conn_table.create cfg in
  let bloom = scratch_bloom cfg in
  let chosen = ref [] in
  let ok f =
    List.for_all (fun g -> not (Ft.equal f g) && not (shares_probe ct f g)) !chosen
    && begin
      (* membership is monotone in the bit set: if [f] misses with every
         other flow recorded, it misses in every reachable transit
         state (and symmetrically for each already-chosen flow) *)
      Asic.Bloom_filter.clear bloom;
      List.iter (fun g -> Asic.Bloom_filter.add bloom (flow_hash_of cfg g)) !chosen;
      (not (Asic.Bloom_filter.mem bloom (flow_hash_of cfg f)))
      && List.for_all
           (fun g ->
             Asic.Bloom_filter.clear bloom;
             Asic.Bloom_filter.add bloom (flow_hash_of cfg f);
             List.iter
               (fun h -> if not (Ft.equal h g) then Asic.Bloom_filter.add bloom (flow_hash_of cfg h))
               !chosen;
             not (Asic.Bloom_filter.mem bloom (flow_hash_of cfg g)))
           !chosen
    end
  in
  let i = ref 0 in
  while List.length !chosen < n do
    if !i >= max_candidates then failwith "Modelcheck: conformance flow search exhausted";
    let f = candidate !i in
    if ok f then chosen := f :: !chosen;
    incr i
  done;
  Array.of_list (List.rev !chosen)

(* ----- the model ----- *)

type mconn = {
  mutable mc_version : int;
  mutable mc_inserted : bool;
  mutable mc_in_pipeline : bool;
  mutable mc_ended : bool;
  mutable mc_gone : bool;
}

type mversion = {
  mutable mv_pool : Pool.t;
  mutable mv_refs : int;
  mutable mv_live : bool;
}

type mwork = W_insert of int list | W_delete of int | W_repair

type mjob = {
  mutable mj_waiting : int list;
  mutable mj_recorded : int list;
  mutable mj_phase : [ `Recording | `Dual ];
  mj_started : float;
  mj_update : int;
}

type mphase = M_idle | M_recording | M_dual of int

type model = {
  cfg : Silkroad.Config.t;
  deadline : float;
  eager_gc : bool;
  flows : Ft.t array;
  removed : Ep.t array;
  collide_rel : bool array array;
  alias_rel : bool array array;  (* alias_rel.(g).(f): recording g makes f hit *)
  conns : mconn option array;
  shadowed_by : int option array;  (* partner whose installed entry this flow falsely hits *)
  versions : (int, mversion) Hashtbl.t;
  mutable next_version : int;
  mutable current : int;
  mutable phase : mphase;
  mutable job : mjob option;
  queue : (float * int) Queue.t;
  transit : bool array;
  mutable pending : (int * float) list;  (* learning filter, oldest first *)
  mutable busy : float;
  cpu_done : (float * mwork) Queue.t;
  mutable clock : float;
  (* counters *)
  mutable n_completed : int;
  mutable n_failed : int;
  mutable n_forced : int;
  mutable n_repairs : int;
  mutable recycle_bad : bool;
  (* PCC: the judge every replay engine calls *)
  pcc : Lb.Pcc.Flat.t;
  pcc_counts : Lb.Pcc.Flat.counters;
}

let make_model ~cfg ~deadline ~eager_gc ~flows ~removed ~collide ~alias =
  let n = Array.length flows in
  let mk_rel pairs =
    let r = Array.make_matrix n n false in
    List.iter (fun (a, b) -> r.(a).(b) <- true) pairs;
    r
  in
  let versions = Hashtbl.create 8 in
  Hashtbl.replace versions 0 { mv_pool = pool_full (); mv_refs = 0; mv_live = true };
  {
    cfg;
    deadline;
    eager_gc;
    flows;
    removed;
    collide_rel = mk_rel (List.concat_map (fun (a, b) -> [ (a, b); (b, a) ]) collide);
    alias_rel = mk_rel alias;
    conns = Array.make n None;
    shadowed_by = Array.make n None;
    versions;
    next_version = 1;
    current = 0;
    phase = M_idle;
    job = None;
    queue = Queue.create ();
    transit = Array.make n false;
    pending = [];
    busy = 0.;
    cpu_done = Queue.create ();
    clock = 0.;
    n_completed = 0;
    n_failed = 0;
    n_forced = 0;
    n_repairs = 0;
    recycle_bad = false;
    pcc = Lb.Pcc.Flat.create n;
    pcc_counts = Lb.Pcc.Flat.counters ();
  }

let live_conn m f =
  match m.conns.(f) with Some st when not st.mc_gone -> Some st | Some _ | None -> None

let version_info m v = Hashtbl.find_opt m.versions v

let transit_on m = m.cfg.Silkroad.Config.use_transit

let transit_mem m f =
  m.transit.(f)
  || Array.exists (fun g -> m.transit.(g) && m.alias_rel.(g).(f))
       (Array.init (Array.length m.flows) Fun.id)

let clear_transit_if_idle m =
  if m.phase = M_idle && m.job = None then Array.fill m.transit 0 (Array.length m.transit) false

(* version bookkeeping: mirror Dip_pool_table.release / gc *)
let destroy_version m v =
  match version_info m v with
  | Some i when i.mv_live ->
    i.mv_live <- false;
    Hashtbl.remove m.versions v;
    (* the recycle property: nobody still holds it *)
    Array.iter
      (fun st ->
        match st with
        | Some st when (not st.mc_gone) && st.mc_version = v -> m.recycle_bad <- true
        | Some _ | None -> ())
      m.conns
  | Some _ | None -> ()

let release_version m v =
  match version_info m v with
  | Some i ->
    i.mv_refs <- i.mv_refs - 1;
    if i.mv_refs = 0 && v <> m.current then destroy_version m v
  | None -> ()

let retain_version m v =
  match version_info m v with Some i -> i.mv_refs <- i.mv_refs + 1 | None -> ()

let gc_versions m =
  let dead =
    Hashtbl.fold
      (fun v (i : mversion) acc ->
        if v <> m.current && (i.mv_refs = 0 || m.eager_gc) then v :: acc else acc)
      m.versions []
  in
  List.iter (destroy_version m) (List.sort Int.compare dead)

let destroy_state m (st : mconn) =
  st.mc_gone <- true;
  release_version m st.mc_version

(* ----- job state machine (mirrors Switch.start_job etc.) ----- *)

let rec start_next_queued m ~now =
  match Queue.take_opt m.queue with
  | None -> ()
  | Some (_, u) -> start_job m ~now u

and finish_job m ~now job =
  ignore job;
  m.phase <- M_idle;
  m.job <- None;
  m.n_completed <- m.n_completed + 1;
  gc_versions m;
  clear_transit_if_idle m;
  start_next_queued m ~now

and execute_job m ~now job =
  let cur = Hashtbl.find m.versions m.current in
  let target = Pool.remove cur.mv_pool m.removed.(job.mj_update) in
  let equal_pool =
    Hashtbl.fold
      (fun v (i : mversion) acc ->
        match acc with Some _ -> acc | None -> if Pool.equal i.mv_pool target then Some v else None)
      m.versions None
  in
  let new_version =
    match equal_pool with
    | Some v -> Some v
    | None ->
      if Hashtbl.length m.versions >= Silkroad.Config.max_versions m.cfg then None
      else begin
        let v = m.next_version in
        m.next_version <- v + 1;
        Hashtbl.replace m.versions v { mv_pool = target; mv_refs = 0; mv_live = true };
        Some v
      end
  in
  match new_version with
  | Some v ->
    let old = m.current in
    m.current <- v;
    m.phase <- M_dual old;
    job.mj_phase <- `Dual;
    job.mj_waiting <- job.mj_recorded;
    if job.mj_waiting = [] then finish_job m ~now job
  | None ->
    (* versions exhausted: cancel_recording *)
    m.phase <- M_idle;
    m.job <- None;
    m.n_failed <- m.n_failed + 1;
    clear_transit_if_idle m;
    start_next_queued m ~now

and check_job_transition m ~now job =
  if job.mj_waiting = [] then
    match job.mj_phase with
    | `Recording -> execute_job m ~now job
    | `Dual -> finish_job m ~now job

and start_job m ~now u =
  let waiting =
    if transit_on m then
      List.filteri (fun _ _ -> true)
        (List.filter_map
           (fun f ->
             match live_conn m f with
             | Some st when (not st.mc_inserted) && not st.mc_ended -> Some f
             | Some _ | None -> None)
           (List.init (Array.length m.flows) Fun.id))
    else []
  in
  let job =
    { mj_waiting = waiting; mj_recorded = []; mj_phase = `Recording; mj_started = now; mj_update = u }
  in
  m.phase <- M_recording;
  m.job <- Some job;
  check_job_transition m ~now job

let barrier_resolved m ~now f =
  match m.job with
  | None -> ()
  | Some job ->
    job.mj_recorded <- List.filter (fun g -> g <> f) job.mj_recorded;
    if List.mem f job.mj_waiting then begin
      job.mj_waiting <- List.filter (fun g -> g <> f) job.mj_waiting;
      check_job_transition m ~now job
    end

(* ----- async pipeline (mirrors Switch.advance ordering) ----- *)

let submit_cpu m ~now items =
  let start = Float.max now m.busy in
  let finish = start +. (float_of_int items /. m.cfg.Silkroad.Config.cpu_insertions_per_sec) in
  m.busy <- finish;
  finish

(* an entry of [f] lands in the table: flows colliding with [f] that
   are untracked right now could not be protected by the placement
   filter and will falsely hit this entry *)
let cast_shadow m f =
  Array.iteri
    (fun g _ ->
      if m.collide_rel.(f).(g) && live_conn m g = None && m.shadowed_by.(g) = None then
        m.shadowed_by.(g) <- Some f)
    m.flows

let uncast_shadow m f =
  Array.iteri (fun g s -> if s = Some f then m.shadowed_by.(g) <- None) m.shadowed_by

let drain_learning m ~at =
  match m.pending with
  | [] -> ()
  | pending ->
    m.pending <- [];
    let fs = List.map fst pending in
    let done_at = submit_cpu m ~now:at (List.length fs) in
    Queue.add (done_at, W_insert fs) m.cpu_done

let complete_cpu m ~now =
  let rec go () =
    match Queue.peek_opt m.cpu_done with
    | Some (at, work) when at <= now ->
      ignore (Queue.pop m.cpu_done);
      (match work with
       | W_insert fs ->
         List.iter
           (fun f ->
             match live_conn m f with
             | None -> ()
             | Some st ->
               st.mc_in_pipeline <- false;
               if st.mc_ended then begin
                 barrier_resolved m ~now f;
                 destroy_state m st
               end
               else if not st.mc_inserted then begin
                 st.mc_inserted <- true;
                 m.shadowed_by.(f) <- None;
                 cast_shadow m f;
                 barrier_resolved m ~now f
               end)
           fs
       | W_delete f ->
         uncast_shadow m f;
         (match live_conn m f with
          | Some st ->
            st.mc_inserted <- false;
            destroy_state m st
          | None -> ())
       | W_repair -> m.n_repairs <- m.n_repairs + 1);
      go ()
    | Some _ | None -> ()
  in
  go ()

let release_stuck m ~now =
  match m.job with
  | Some job when now -. job.mj_started > m.deadline && job.mj_waiting <> [] ->
    m.n_forced <- m.n_forced + 1;
    job.mj_waiting <- [];
    check_job_transition m ~now job
  | Some _ | None -> ()

let advance m ~now =
  if now >= m.clock then begin
    m.clock <- now;
    let rec drain_due () =
      match m.pending with
      | (_, t0) :: _ when t0 +. m.cfg.Silkroad.Config.learning_timeout <= now ->
        drain_learning m ~at:(t0 +. m.cfg.Silkroad.Config.learning_timeout);
        drain_due ()
      | _ :: _ | [] -> ()
    in
    drain_due ();
    complete_cpu m ~now
    (* no idle expiry: scope spans are far below cfg.idle_timeout *);
    release_stuck m ~now
  end

(* ----- PCC: Lb.Pcc.Flat, the replay engines' judge ----- *)

let judge m f dip ~ends =
  let dip = match dip with Some d -> d | None -> Silkroad.Switch.no_dip in
  Lb.Pcc.Flat.judge m.pcc m.pcc_counts f dip ~ends

(* ----- packet path (mirrors Switch.process_flow) ----- *)

let forward m f version =
  match version_info m version with
  | Some i when i.mv_live && not (Pool.is_empty i.mv_pool) ->
    Some (select m.cfg i.mv_pool m.flows.(f))
  | Some _ | None -> None

let how_plain = 0
let how_recorded = 1
let how_cpu_checked = 2

let version_for_miss m f ~syn =
  match m.phase with
  | M_idle -> (m.current, how_plain)
  | M_recording ->
    if transit_on m then m.transit.(f) <- true;
    (m.current, how_recorded)
  | M_dual old ->
    if transit_on m && transit_mem m f then
      if syn then (m.current, how_cpu_checked) else (old, how_plain)
    else (m.current, how_plain)

let learn m ~now f (st : mconn) =
  if not st.mc_in_pipeline then begin
    st.mc_in_pipeline <- true;
    if not (List.mem_assoc f m.pending) then begin
      m.pending <- m.pending @ [ (f, now) ];
      if List.length m.pending >= m.cfg.Silkroad.Config.learning_capacity then
        drain_learning m ~at:now
    end
  end

let create_state m f version =
  let st =
    { mc_version = version; mc_inserted = false; mc_in_pipeline = false; mc_ended = false; mc_gone = false }
  in
  m.conns.(f) <- Some st;
  retain_version m version;
  st

let submit_delete m ~now f =
  let done_at = submit_cpu m ~now 1 in
  Queue.add (done_at, W_delete f) m.cpu_done

let record_in_job m f =
  match m.job with
  | Some job when not (List.mem f job.mj_recorded) -> job.mj_recorded <- job.mj_recorded @ [ f ]
  | Some _ | None -> ()

let handle_miss m ~now f ~syn ~ends =
  let code_version, how = version_for_miss m f ~syn in
  match live_conn m f with
  | Some st ->
    if ends then st.mc_ended <- true;
    if how = how_recorded && not st.mc_inserted then record_in_job m f;
    learn m ~now f st;
    let version = if how = how_cpu_checked then st.mc_version else code_version in
    forward m f version
  | None ->
    if ends then forward m f code_version
    else begin
      let st = create_state m f code_version in
      if how = how_recorded then record_in_job m f;
      learn m ~now f st;
      forward m f code_version
    end

let handle_false_hit_syn m ~now f =
  let code_version, _how = version_for_miss m f ~syn:true in
  let st = match live_conn m f with Some st -> st | None -> create_state m f code_version in
  let done_at = submit_cpu m ~now 3 in
  Queue.add (done_at, W_repair) m.cpu_done;
  st.mc_inserted <- true;
  m.shadowed_by.(f) <- None;
  cast_shadow m f;
  barrier_resolved m ~now f;
  forward m f st.mc_version

let process_packet m ~now f ~syn ~ends =
  advance m ~now;
  let dip =
    match live_conn m f with
    | Some st when st.mc_inserted ->
      (* exact hit *)
      if ends && not st.mc_ended then begin
        st.mc_ended <- true;
        submit_delete m ~now f
      end;
      forward m f st.mc_version
    | _ -> (
      (* no own entry: a colliding partner's installed entry? *)
      match m.shadowed_by.(f) with
      | Some g
        when (match live_conn m g with Some gst -> gst.mc_inserted | None -> false) ->
        if syn then handle_false_hit_syn m ~now f
        else
          (* §4.2: forwarded with the wrong entry's version *)
          let gv = (match live_conn m g with Some gst -> gst.mc_version | None -> m.current) in
          forward m f gv
      | Some _ | None -> handle_miss m ~now f ~syn ~ends)
  in
  judge m f dip ~ends;
  dip

let process_update m ~now j =
  advance m ~now;
  Lb.Pcc.Flat.exclude m.pcc_counts m.removed.(j);
  match m.job with
  | Some _ -> Queue.add (now, j) m.queue
  | None -> start_job m ~now j

let check_recycle_invariant m =
  Array.iter
    (fun st ->
      match st with
      | Some st when not st.mc_gone ->
        (match version_info m st.mc_version with
         | Some i when i.mv_live -> ()
         | Some _ | None -> m.recycle_bad <- true)
      | Some _ | None -> ())
    m.conns

type run_result = {
  rr_dips : Ep.t option array;
  rr_violations : int;
  rr_broken : int;
  rr_completed : int;
  rr_failed : int;
  rr_forced : int;
  rr_repairs : int;
  rr_recycle : bool;
}

let run_model ~cfg ~deadline ~eager_gc ~flows ~removed ~collide ~alias ~events ~horizon =
  let m = make_model ~cfg ~deadline ~eager_gc ~flows ~removed ~collide ~alias in
  let n_pkts = List.length (List.filter (fun (_, e) -> match e with Pkt _ -> true | Upd _ -> false) events) in
  let dips = Array.make n_pkts None in
  let k = ref 0 in
  List.iter
    (fun (t, ev) ->
      (match ev with
       | Pkt { eflow; esyn; eends } ->
         dips.(!k) <- process_packet m ~now:t eflow ~syn:esyn ~ends:eends;
         incr k
       | Upd j -> process_update m ~now:t j);
      check_recycle_invariant m)
    events;
  advance m ~now:horizon;
  check_recycle_invariant m;
  {
    rr_dips = dips;
    rr_violations = m.pcc_counts.Lb.Pcc.Flat.violations;
    rr_broken = m.pcc_counts.Lb.Pcc.Flat.broken;
    rr_completed = m.n_completed;
    rr_failed = m.n_failed;
    rr_forced = m.n_forced;
    rr_repairs = m.n_repairs;
    rr_recycle = m.recycle_bad;
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
  ce_model_violations : int;
}

type outcome = {
  oc_runs : int;
  oc_events : int;
  oc_violating : int;
  oc_recycled : int;
  oc_forced : int;
  oc_counterexamples : counterexample list;
}

let max_counterexamples = 8

let regime_config ?(use_transit = true) rg =
  verify_config ~use_transit ~cpu_rate:rg.cpu_rate ~learn_timeout:rg.learn_timeout ()

let horizon_of events = (match List.rev events with (t, _) :: _ -> t | [] -> 0.) +. 1.0

let check_scope ?mutation scope =
  let use_transit = mutation <> Some Transit_insert_disabled in
  let eager_gc = mutation = Some Eager_version_gc in
  let deadline = Silkroad.Switch.barrier_deadline in
  let removed = removed_dips scope.sc_updates in
  let runs = ref 0 and events_total = ref 0 in
  let violating = ref 0 and recycled = ref 0 and forced = ref 0 in
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
          let collide = if pat.collide then [ (0, 1) ] else [] in
          let alias = if pat.alias then [ (0, 1); (1, 0) ] else [] in
          each_order ~flow_packets:scope.sc_flow_packets ~updates:scope.sc_updates
            (fun order ->
              let events = events_of_order ~flow_packets:scope.sc_flow_packets ~gap:rg.gap order in
              let horizon = horizon_of events in
              let r =
                run_model ~cfg ~deadline ~eager_gc ~flows ~removed ~collide ~alias ~events
                  ~horizon
              in
              incr runs;
              events_total := !events_total + List.length events;
              if r.rr_forced > 0 then incr forced;
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
                       ce_model_violations = r.rr_violations;
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
    oc_counterexamples = List.rev !ces;
  }

(* ----- realizing counterexamples ----- *)

let ce_packets ce =
  List.filter_map
    (fun (t, ev) ->
      match ev with
      | Pkt { eflow; esyn; eends } -> Some (t, (eflow, esyn, eends))
      | Upd _ -> None)
    ce.ce_events

let ce_flags ~esyn ~eends =
  if esyn then Netcore.Tcp_flags.syn
  else if eends then Netcore.Tcp_flags.fin
  else Netcore.Tcp_flags.data

let ce_trace ce =
  let pkts = ce_packets ce in
  let n = List.length pkts in
  let times = Array.make n 0. in
  let pkt_flow = Array.make n 0 in
  let pkt_flags = Bytes.make n '\000' in
  List.iteri
    (fun i (t, (eflow, esyn, eends)) ->
      times.(i) <- t;
      pkt_flow.(i) <- eflow;
      Bytes.set pkt_flags i (Char.chr (Netcore.Tcp_flags.to_byte (ce_flags ~esyn ~eends))))
    pkts;
  {
    Harness.Packed_trace.horizon = horizon_of ce.ce_events;
    vips = [| ce.ce_vip |];
    flow_ids = Array.init (Array.length ce.ce_flows) Fun.id;
    flow_vip = Array.make (Array.length ce.ce_flows) 0;
    flow_tuples = Array.copy ce.ce_flows;
    times;
    pkt_flow;
    pkt_flags;
  }

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

(* ----- conformance ----- *)

type obs = {
  ob_dips : Ep.t option array;
  ob_completed : int;
  ob_failed : int;
  ob_forced : int;
  ob_repairs : int;
}

let model_observe ~cfg ~flows ~removed ~events ~horizon =
  let r =
    run_model ~cfg ~deadline:Silkroad.Switch.barrier_deadline ~eager_gc:false ~flows ~removed
      ~collide:[] ~alias:[] ~events ~horizon
  in
  {
    ob_dips = r.rr_dips;
    ob_completed = r.rr_completed;
    ob_failed = r.rr_failed;
    ob_forced = r.rr_forced;
    ob_repairs = r.rr_repairs;
  }

let switch_observe ~cfg ~flows ~removed ~events ~horizon =
  let sw = Silkroad.Switch.create ~check:`Off cfg in
  Silkroad.Switch.add_vip sw model_vip (pool_full ());
  let n_pkts =
    List.length (List.filter (fun (_, e) -> match e with Pkt _ -> true | Upd _ -> false) events)
  in
  let dips = Array.make n_pkts None in
  let k = ref 0 in
  List.iter
    (fun (t, ev) ->
      match ev with
      | Pkt { eflow; esyn; eends } ->
        let d =
          Silkroad.Switch.process_flow sw ~now:t
            ~flags:(ce_flags ~esyn ~eends)
            ~payload_len:0 flows.(eflow)
        in
        dips.(!k) <- (if d == Silkroad.Switch.no_dip then None else Some d);
        incr k
      | Upd j ->
        Silkroad.Switch.advance sw ~now:t;
        Silkroad.Switch.request_update sw ~now:t ~vip:model_vip
          (Lb.Balancer.Dip_remove removed.(j)))
    events;
  Silkroad.Switch.advance sw ~now:horizon;
  let st = Silkroad.Switch.stats sw in
  {
    ob_dips = dips;
    ob_completed = st.Silkroad.Switch.updates_completed;
    ob_failed = st.Silkroad.Switch.updates_failed;
    ob_forced = st.Silkroad.Switch.forced_transitions;
    ob_repairs = st.Silkroad.Switch.collision_repairs;
  }

(* ----- the verify driver ----- *)

type report = {
  rp_shipped : (scope * outcome) list;
  rp_mutants :
    (mutation * outcome * (counterexample * Harness.Replay.result option) option) list;
  rp_diags : Diag.t list;
}

let run_verify ?(scopes = default_scopes) ?(mutants = mutations) () =
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
               (Printf.sprintf "scope %s: %d runs recycle a version prematurely" sc.sc_name
                  oc.oc_recycled));
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
      scopes
  in
  let mutant_results =
    List.map
      (fun mu ->
        let ocs = List.map (fun sc -> check_scope ~mutation:mu sc) (mutation_scopes mu) in
        let oc =
          List.fold_left
            (fun a b ->
              {
                oc_runs = a.oc_runs + b.oc_runs;
                oc_events = a.oc_events + b.oc_events;
                oc_violating = a.oc_violating + b.oc_violating;
                oc_recycled = a.oc_recycled + b.oc_recycled;
                oc_forced = a.oc_forced + b.oc_forced;
                oc_counterexamples = a.oc_counterexamples @ b.oc_counterexamples;
              })
            { oc_runs = 0; oc_events = 0; oc_violating = 0; oc_recycled = 0; oc_forced = 0;
              oc_counterexamples = [] }
            ocs
        in
        let wanted =
          List.filter
            (fun ce ->
              match mu with Eager_version_gc -> ce.ce_kind = `Recycle | _ -> ce.ce_kind = `Pcc)
            oc.oc_counterexamples
        in
        let killed =
          if mutation_model_only mu then
            match wanted with [] -> None | ce :: _ -> Some (ce, None)
          else
            (* try counterexamples until one demonstrably breaks the real
               switch; the model is an abstraction, so keep a few arrows *)
            List.fold_left
              (fun acc ce ->
                match acc with
                | Some _ -> acc
                | None ->
                  let r = replay_on_switch ce in
                  if r.Harness.Replay.violations > 0 then Some (ce, Some r) else None)
              None wanted
        in
        (match killed with
         | Some (ce, Some r) ->
           add
             (Diag.v ~rule:"model.mutant" ~severity:Diag.Info
                (Printf.sprintf
                   "mutant %s killed: counterexample (%s/%s/%s) breaks PCC on the real switch \
                    (%d violations, %d broken connections)"
                   (mutation_name mu) ce.ce_scope ce.ce_regime.rg_name ce.ce_pattern.pat_name
                   r.Harness.Replay.violations r.Harness.Replay.broken))
         | Some (ce, None) ->
           add
             (Diag.v ~rule:"model.mutant" ~severity:Diag.Info
                (Printf.sprintf "mutant %s killed (model-only): %s counterexample at %s/%s"
                   (mutation_name mu)
                   (match ce.ce_kind with `Pcc -> "PCC" | `Recycle -> "recycle")
                   ce.ce_scope ce.ce_regime.rg_name))
         | None ->
           add
             (Diag.v ~rule:"model.mutant-survived" ~severity:Diag.Error
                ~hint:
                  "either the mutation is not actually a defect (tighten the property) or the \
                   scope is too small to expose it (widen regimes/patterns)"
                (Printf.sprintf
                   "mutant %s survived: %d runs, %d model counterexamples, none breaks the \
                    real switch"
                   (mutation_name mu) oc.oc_runs
                   (List.length wanted))));
        (mu, oc, killed))
      mutants
  in
  { rp_shipped = shipped; rp_mutants = mutant_results; rp_diags = List.sort Diag.compare !diags }

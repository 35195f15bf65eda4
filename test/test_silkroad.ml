(* Tests for the SilkRoad core: version allocator, DIPPoolTable (with
   version reuse), VIPTable phases, ConnTable digests and collision
   repair, the switch's control plane and 3-step PCC updates, and the
   analytic models. *)

let check = Alcotest.check
let tc = Alcotest.test_case

let dip i = Netcore.Endpoint.v4 10 0 0 i 20
let vip = Netcore.Endpoint.v4 20 0 0 1 80
let pool l = Lb.Dip_pool.of_list (List.map dip l)

let flow i =
  Netcore.Five_tuple.make
    ~src:(Netcore.Endpoint.v4 1 2 ((i / 60000) + 1) 4 (1 + (i mod 60000)))
    ~dst:vip ~proto:Netcore.Protocol.Tcp

(* ---------- Version ---------- *)

let version_alloc_release () =
  let v = Silkroad.Version.create ~bits:2 in
  check Alcotest.int "capacity" 4 (Silkroad.Version.capacity v);
  let a = Result.get_ok (Silkroad.Version.allocate v) in
  let b = Result.get_ok (Silkroad.Version.allocate v) in
  check Alcotest.bool "distinct" true (a <> b);
  check Alcotest.int "free" 2 (Silkroad.Version.free_count v);
  Silkroad.Version.release v a;
  check Alcotest.int "free after release" 3 (Silkroad.Version.free_count v);
  check Alcotest.bool "released not allocated" false (Silkroad.Version.is_allocated v a)

let version_ring_buffer_order () =
  let v = Silkroad.Version.create ~bits:2 in
  let all = List.init 4 (fun _ -> Result.get_ok (Silkroad.Version.allocate v)) in
  check (Alcotest.list Alcotest.int) "fifo" [ 0; 1; 2; 3 ] all;
  Silkroad.Version.release v 2;
  Silkroad.Version.release v 0;
  check Alcotest.int "ring order" 2 (Result.get_ok (Silkroad.Version.allocate v));
  check Alcotest.int "ring order 2" 0 (Result.get_ok (Silkroad.Version.allocate v))

let version_exhaustion () =
  let v = Silkroad.Version.create ~bits:1 in
  ignore (Silkroad.Version.allocate v);
  ignore (Silkroad.Version.allocate v);
  (match Silkroad.Version.allocate v with
   | Error `Exhausted -> ()
   | Ok _ -> Alcotest.fail "expected exhaustion");
  check Alcotest.int "counted" 1 (Silkroad.Version.exhaustions v)

let version_double_release () =
  let v = Silkroad.Version.create ~bits:2 in
  let a = Result.get_ok (Silkroad.Version.allocate v) in
  Silkroad.Version.release v a;
  Alcotest.check_raises "double release" (Invalid_argument "Version.release: not allocated")
    (fun () -> Silkroad.Version.release v a)

let qcheck_version_never_double_allocates =
  QCheck.Test.make ~name:"allocator never hands out a live version" ~count:100
    QCheck.(list bool)
    (fun ops ->
      let v = Silkroad.Version.create ~bits:3 in
      let live = Hashtbl.create 8 in
      List.for_all
        (fun alloc ->
          if alloc then
            match Silkroad.Version.allocate v with
            | Ok x ->
              let fresh = not (Hashtbl.mem live x) in
              Hashtbl.replace live x ();
              fresh
            | Error `Exhausted -> Hashtbl.length live = 8
          else
            match Hashtbl.fold (fun k () acc -> k :: acc) live [] with
            | [] -> true
            | k :: _ ->
              Hashtbl.remove live k;
              Silkroad.Version.release v k;
              true)
        ops)

(* ---------- Dip_pool_table ---------- *)

module Dpt = Silkroad.Dip_pool_table

let dpt () = Dpt.create ~version_bits:6 ~seed:1

(* the pool a VIP's version holds, [None] once it is destroyed *)
let pool_of vs v = if Dpt.allocated vs v then Some (Dpt.lookup vs v).Dpt.pool else None

let retain vs v = Dpt.retain (Dpt.lookup vs v)

let dpt_basics () =
  let t = dpt () in
  let vs, v0 = Result.get_ok (Dpt.add_vip t vip (pool [ 1; 2 ])) in
  (match pool_of vs v0 with
   | Some p -> check Alcotest.int "pool size" 2 (Lb.Dip_pool.size p)
   | None -> Alcotest.fail "pool missing");
  (match Dpt.add_vip t vip (pool [ 1 ]) with
   | Error `Exists -> ()
   | Ok _ -> Alcotest.fail "duplicate vip accepted");
  let d = Dpt.select_dip_fast t ~vip ~version:v0 (flow 1) ~none:Netcore.Endpoint.none in
  check Alcotest.bool "selected member" true (List.mem d [ dip 1; dip 2 ]);
  check Alcotest.bool "same selection through the record" true
    (Dpt.select t (Dpt.lookup vs v0) (flow 1) ~none:Netcore.Endpoint.none == d)

let dpt_publish_remove_creates_version () =
  let t = dpt () in
  let vs, v0 = Result.get_ok (Dpt.add_vip t vip (pool [ 1; 2; 3 ])) in
  let v1 = Result.get_ok (Dpt.publish t vs ~current:v0 (Lb.Balancer.Dip_remove (dip 2))) in
  check Alcotest.bool "new version" true (v1 <> v0);
  (* both pools coexist: old conns keep v0 *)
  (match pool_of vs v0 with
   | Some p -> check Alcotest.int "old intact" 3 (Lb.Dip_pool.size p)
   | None -> Alcotest.fail "old destroyed");
  match pool_of vs v1 with
  | Some p ->
    check Alcotest.int "new smaller" 2 (Lb.Dip_pool.size p);
    check Alcotest.bool "dip gone" false (Lb.Dip_pool.mem p (dip 2))
  | None -> Alcotest.fail "new missing"

let dpt_version_reuse () =
  let t = dpt () in
  let vs, v0 = Result.get_ok (Dpt.add_vip t vip (pool [ 1; 2 ])) in
  (* keep v0 alive with a connection *)
  retain vs v0;
  let v1 = Result.get_ok (Dpt.publish t vs ~current:v0 (Lb.Balancer.Dip_remove (dip 2))) in
  (* add a substitute: the paper's reuse case — v0 is recycled *)
  let v2 = Result.get_ok (Dpt.publish t vs ~current:v1 (Lb.Balancer.Dip_add (dip 4))) in
  check Alcotest.int "reused v0" v0 v2;
  check Alcotest.int "one reuse" 1 (Dpt.reuses t);
  (match pool_of vs v2 with
   | Some p ->
     check Alcotest.bool "substituted" true (Lb.Dip_pool.mem p (dip 4));
     check Alcotest.bool "old member kept" true (Lb.Dip_pool.mem p (dip 1));
     check Alcotest.bool "removed gone" false (Lb.Dip_pool.mem p (dip 2))
   | None -> Alcotest.fail "reused pool missing");
  (* slot positions preserved for surviving members *)
  match pool_of vs v2 with
  | Some p -> check Alcotest.bool "slot kept" true
                (Netcore.Endpoint.equal (Lb.Dip_pool.members p).(0) (dip 1))
  | None -> assert false

let dpt_readd_same_dip_reuses () =
  let t = dpt () in
  let vs, v0 = Result.get_ok (Dpt.add_vip t vip (pool [ 1; 2 ])) in
  retain vs v0;
  let v1 = Result.get_ok (Dpt.publish t vs ~current:v0 (Lb.Balancer.Dip_remove (dip 2))) in
  (* the same DIP comes back (rolling reboot): reuse without mutation *)
  let v2 = Result.get_ok (Dpt.publish t vs ~current:v1 (Lb.Balancer.Dip_add (dip 2))) in
  check Alcotest.int "identical pool reused" v0 v2

let dpt_refcount_destroys () =
  let t = dpt () in
  let vs, v0 = Result.get_ok (Dpt.add_vip t vip (pool [ 1; 2 ])) in
  let i0 = Dpt.lookup vs v0 in
  Dpt.retain i0;
  let v1 = Result.get_ok (Dpt.publish t vs ~current:v0 (Lb.Balancer.Dip_remove (dip 2))) in
  check Alcotest.int "two live" 2 (Dpt.live_versions vs);
  (* the last v0 connection ends: v0 is destroyed (v1 is current) *)
  Dpt.release vs i0 ~current:v1;
  check Alcotest.int "one live" 1 (Dpt.live_versions vs);
  check Alcotest.bool "v0 gone" true (pool_of vs v0 = None);
  Alcotest.check_raises "a destroyed version is not released twice"
    (Invalid_argument "Dip_pool_table.release: unknown version") (fun () ->
      Dpt.release vs i0 ~current:v1)

let dpt_current_survives_zero_refs () =
  let t = dpt () in
  let vs, v0 = Result.get_ok (Dpt.add_vip t vip (pool [ 1 ])) in
  retain vs v0;
  Dpt.release vs (Dpt.lookup vs v0) ~current:v0;
  check Alcotest.bool "current stays" true (pool_of vs v0 <> None)

let dpt_gc () =
  let t = dpt () in
  let vs, v0 = Result.get_ok (Dpt.add_vip t vip (pool [ 1; 2 ])) in
  (* v0 never attracted connections; after an update it should be
     collectable *)
  let v1 = Result.get_ok (Dpt.publish t vs ~current:v0 (Lb.Balancer.Dip_remove (dip 2))) in
  Dpt.gc vs ~current:v1;
  check Alcotest.int "only current" 1 (Dpt.live_versions vs)

(* Two versions qualify for substitution reuse: each holds the current
   pool plus one extra DIP. The scan walks versions in number order, so
   the lowest-numbered one is rewritten and made current again. *)
let dpt_reuse_picks_lowest () =
  let t = dpt () in
  let vs, v0 = Result.get_ok (Dpt.add_vip t vip (pool [ 1; 2 ])) in
  retain vs v0;
  let publish ~current u = Result.get_ok (Dpt.publish t vs ~current u) in
  let v1 =
    publish ~current:v0 (Lb.Balancer.Dip_replace { old_dip = dip 2; new_dip = dip 3 })
  in
  retain vs v1;
  let v2 = publish ~current:v1 (Lb.Balancer.Dip_remove (dip 3)) in
  check Alcotest.(list int) "three versions" [ 0; 1; 2 ] [ v0; v1; v2 ];
  let v3 = publish ~current:v2 (Lb.Balancer.Dip_add (dip 4)) in
  check Alcotest.int "the lowest-numbered candidate" v0 v3;
  check Alcotest.int "one reuse" 1 (Dpt.reuses t);
  check Alcotest.bool "rewritten in place" true
    (match pool_of vs v0 with Some p -> Lb.Dip_pool.equal p (pool [ 1; 4 ]) | None -> false);
  check Alcotest.bool "the other candidate untouched" true
    (match pool_of vs v1 with Some p -> Lb.Dip_pool.equal p (pool [ 1; 3 ]) | None -> false)

(* The removed DIP sat mid-pool: the old version is the current pool
   with it inserted in place, so adding a substitute rewrites that slot
   and reuses the version. *)
let dpt_reuse_mid_pool () =
  let t = dpt () in
  let vs, v0 = Result.get_ok (Dpt.add_vip t vip (pool [ 1; 2; 3 ])) in
  retain vs v0;
  let v1 = Result.get_ok (Dpt.publish t vs ~current:v0 (Lb.Balancer.Dip_remove (dip 2))) in
  let v2 = Result.get_ok (Dpt.publish t vs ~current:v1 (Lb.Balancer.Dip_add (dip 4))) in
  check Alcotest.int "reused v0" v0 v2;
  check Alcotest.bool "the removed slot holds the substitute" true
    (match pool_of vs v0 with Some p -> Lb.Dip_pool.equal p (pool [ 1; 4; 3 ]) | None -> false)

let dpt_bad_updates () =
  let t = dpt () in
  let vs, v0 = Result.get_ok (Dpt.add_vip t vip (pool [ 1 ])) in
  (match Dpt.publish t vs ~current:v0 (Lb.Balancer.Dip_remove (dip 9)) with
   | Error (`Bad_update _) -> ()
   | Ok _ | Error _ -> Alcotest.fail "removing absent dip accepted");
  (match Dpt.publish t vs ~current:v0 (Lb.Balancer.Dip_add (dip 1)) with
   | Error (`Bad_update _) -> ()
   | Ok _ | Error _ -> Alcotest.fail "adding present dip accepted");
  (* an unknown VIP or version selects nothing *)
  check Alcotest.bool "unknown vip" true
    (Dpt.select_dip_fast t ~vip:(dip 99) ~version:v0 (flow 1) ~none:Netcore.Endpoint.none
     == Netcore.Endpoint.none);
  check Alcotest.bool "unknown version" false (Dpt.allocated vs (v0 + 1));
  check Alcotest.bool "nothing to select" true
    (Dpt.select t (Dpt.lookup vs (v0 + 1)) (flow 1) ~none:Netcore.Endpoint.none
     == Netcore.Endpoint.none)

(* ---------- Update_job ---------- *)

module Job = Silkroad.Update_job

(* one VIP at version 3 (DIP 1) with its update jobs; [held] is the
   connection pending when an update is requested, so step 1 waits on
   it. Reports are collected as jobs end. *)
let job_fixture ~held =
  let metrics = Telemetry.Registry.create () in
  let vips = Silkroad.Vip_table.create ~metrics and pools = dpt () in
  let vs, version = Result.get_ok (Dpt.add_vip pools vip (pool [ 1 ])) in
  let e = Silkroad.Vip_table.add vips vip vs ~version in
  let jobs =
    Job.create ~metrics Silkroad.Config.default vips pools ~add_pending:(fun e' waiting ->
        if e' == e then Netcore.Five_tuple.Tbl.replace waiting held ())
  in
  let reports = ref [] in
  Job.on_done jobs (fun r -> reports := r :: !reports);
  (jobs, e, reports)

let check_job jobs = check (Alcotest.list Alcotest.string) "job invariants" [] (Job.check jobs)

let update_job_phases () =
  let held = flow 0 in
  let jobs, e, reports = job_fixture ~held in
  let v0 = e.Silkroad.Vip_table.current in
  check Alcotest.int "a miss takes the current version" (v0 lsl 1)
    (Job.miss jobs (flow 1) e ~syn:true ~record:true);
  Job.request jobs ~now:1. e (Lb.Balancer.Dip_add (dip 2));
  let job =
    match e.Silkroad.Vip_table.phase with
    | Silkroad.Vip_table.Recording j -> j
    | Silkroad.Vip_table.Idle | Silkroad.Vip_table.Dual _ -> Alcotest.fail "not recording"
  in
  check Alcotest.int "one job" 1 (Job.pending jobs);
  check Alcotest.bool "step 1 waits on the pending connection" true
    (Netcore.Five_tuple.Tbl.mem job.waiting held);
  check_job jobs;
  (* step 1: a new connection takes the old version and is recorded *)
  check Alcotest.int "step 1 keeps the old version" (v0 lsl 1)
    (Job.miss jobs (flow 1) e ~syn:true ~record:true);
  Job.resolved jobs ~now:2. e held;
  (match e.Silkroad.Vip_table.phase with
   | Silkroad.Vip_table.Dual { old_version; job = j } ->
     check Alcotest.int "old kept" v0 old_version;
     check Alcotest.bool "same job" true (j == job);
     check Alcotest.bool "step 3 waits on the step-1 recorded set itself" true
       (job.waiting == job.recorded);
     check Alcotest.bool "on the recorded connection" true
       (Netcore.Five_tuple.Tbl.mem job.waiting (flow 1))
   | Silkroad.Vip_table.Idle | Silkroad.Vip_table.Recording _ -> Alcotest.fail "not dual");
  let v1 = e.Silkroad.Vip_table.current in
  check Alcotest.bool "flipped" true (v1 <> v0);
  check_job jobs;
  (* step 2: the recorded connection keeps the old version; a SYN that
     hits the TransitTable goes to the CPU; a new flow takes the new one *)
  check Alcotest.int "recorded keeps old" (v0 lsl 1)
    (Job.miss jobs (flow 1) e ~syn:false ~record:true);
  check Alcotest.int "a SYN in the TransitTable is CPU-checked" ((v1 lsl 1) lor 1)
    (Job.miss jobs (flow 1) e ~syn:true ~record:true);
  check Alcotest.int "new flow takes new" (v1 lsl 1)
    (Job.miss jobs (flow 2) e ~syn:true ~record:true);
  Job.resolved jobs ~now:3. e (flow 1);
  check Alcotest.bool "idle" true (e.Silkroad.Vip_table.phase = Silkroad.Vip_table.Idle);
  check Alcotest.int "nothing pending" 0 (Job.pending jobs);
  check_job jobs;
  match !reports with
  | [ r ] ->
    check Alcotest.bool "completed" true (r.Job.ur_outcome = `Completed);
    check Alcotest.int "old version" v0 r.Job.ur_old_version;
    check Alcotest.int "new version" v1 r.Job.ur_new_version;
    check (Alcotest.float 0.) "requested" 1. r.Job.ur_requested;
    check (Alcotest.float 0.) "finished" 3. r.Job.ur_finished
  | l -> Alcotest.failf "%d reports" (List.length l)

(* An update that cannot be published (it removes a DIP the pool does
   not hold) aborts from step 1 back to Idle, leaving the version, and
   the update queued behind it starts. *)
let update_job_cancel () =
  let held = flow 0 in
  let jobs, e, reports = job_fixture ~held in
  let v0 = e.Silkroad.Vip_table.current in
  Job.request jobs ~now:1. e (Lb.Balancer.Dip_remove (dip 9));
  Job.request jobs ~now:1.5 e (Lb.Balancer.Dip_add (dip 2));
  check Alcotest.int "one active, one queued" 2 (Job.pending jobs);
  check_job jobs;
  Job.resolved jobs ~now:2. e held;
  (match !reports with
   | [ r ] ->
     check Alcotest.bool "failed" true (r.Job.ur_outcome = `Failed);
     check Alcotest.int "version left current" v0 r.Job.ur_new_version;
     check Alcotest.int "old = new" r.Job.ur_old_version r.Job.ur_new_version
   | l -> Alcotest.failf "%d reports" (List.length l));
  check Alcotest.int "cancelled, the queued update runs" 1 (Job.pending jobs);
  check Alcotest.bool "recording the queued update" true
    (match e.Silkroad.Vip_table.phase with
     | Silkroad.Vip_table.Recording j -> j.requested = 1.5 && j.started = 2.
     | Silkroad.Vip_table.Idle | Silkroad.Vip_table.Dual _ -> false);
  check_job jobs;
  Job.resolved jobs ~now:3. e held;
  check Alcotest.bool "idle" true (e.Silkroad.Vip_table.phase = Silkroad.Vip_table.Idle);
  check Alcotest.int "both reported" 2 (List.length !reports);
  check_job jobs

(* ---------- Conn_table ---------- *)

let small_cfg =
  { Silkroad.Config.default with
    Silkroad.Config.conn_table_rows = 1024;
    conn_table_stages = 2;
    conn_table_ways = 4 }

let ct_insert_lookup () =
  let t = Silkroad.Conn_table.create small_cfg in
  for i = 0 to 499 do
    match Silkroad.Conn_table.insert t (flow i) ~version:(i mod 64) with
    | Ok _ -> ()
    | Error _ -> Alcotest.fail "insert failed"
  done;
  check Alcotest.int "size" 500 (Silkroad.Conn_table.size t);
  for i = 0 to 499 do
    match Silkroad.Conn_table.lookup t (flow i) with
    | Some r ->
      check Alcotest.bool "exact hit" true r.Silkroad.Conn_table.exact;
      check Alcotest.int "version" (i mod 64) r.Silkroad.Conn_table.version
    | None -> Alcotest.fail "lookup lost key"
  done

let ct_remove () =
  let t = Silkroad.Conn_table.create small_cfg in
  ignore (Silkroad.Conn_table.insert t (flow 1) ~version:2);
  check Alcotest.bool "removed" true (Silkroad.Conn_table.remove t (flow 1));
  check Alcotest.bool "gone" true (Silkroad.Conn_table.lookup t (flow 1) = None)

let ct_entry_bits () =
  let t = Silkroad.Conn_table.create Silkroad.Config.default in
  (* 16-bit digest + 6-bit version + 6-bit overhead = 28-bit entries,
     4 per 112-bit word at capacity 1M: 28 Mbit = 3.5 MB *)
  let bits = Silkroad.Conn_table.sram_bits t in
  check Alcotest.int "sram bits" (Silkroad.Config.conn_capacity Silkroad.Config.default / 4 * 112) bits

let ct_false_positive_repair () =
  (* small digests force collisions; repair must leave both connections
     resolving exactly. 4 stages give the repair room to separate. *)
  let cfg =
    { small_cfg with
      Silkroad.Config.digest_bits = 8;
      conn_table_rows = 128;
      conn_table_stages = 4 }
  in
  let t = Silkroad.Conn_table.create cfg in
  for i = 0 to 299 do
    ignore (Silkroad.Conn_table.insert t (flow i) ~version:1)
  done;
  (* find a fresh flow that falsely hits *)
  let colliding = ref None in
  (try
     for i = 1000 to 20_000 do
       match Silkroad.Conn_table.lookup t (flow i) with
       | Some r when not r.Silkroad.Conn_table.exact ->
         colliding := Some i;
         raise Exit
       | Some _ | None -> ()
     done
   with Exit -> ());
  match !colliding with
  | None -> Alcotest.fail "8-bit digests produced no collision (!)"
  | Some i ->
    (match Silkroad.Conn_table.repair_collision t (flow i) ~version:2 with
     | Ok () ->
       (match Silkroad.Conn_table.lookup t (flow i) with
        | Some r ->
          check Alcotest.bool "newcomer exact" true r.Silkroad.Conn_table.exact;
          check Alcotest.int "newcomer version" 2 r.Silkroad.Conn_table.version
        | None -> Alcotest.fail "newcomer lost");
       check Alcotest.bool "repair counted" true (Silkroad.Conn_table.repairs t >= 1)
     | Error `Full -> Alcotest.fail "repair reported full")

let ct_repair_preserves_residents () =
  let cfg =
    { small_cfg with
      Silkroad.Config.digest_bits = 8;
      conn_table_rows = 128;
      conn_table_stages = 4 }
  in
  let t = Silkroad.Conn_table.create cfg in
  let residents = List.init 300 (fun i -> flow i) in
  List.iter (fun f -> ignore (Silkroad.Conn_table.insert t f ~version:1)) residents;
  (* repair every collision we can find among fresh flows *)
  let repaired = ref 0 in
  for i = 1000 to 30_000 do
    match Silkroad.Conn_table.lookup t (flow i) with
    | Some r when not r.Silkroad.Conn_table.exact ->
      (match Silkroad.Conn_table.repair_collision t (flow i) ~version:2 with
       | Ok () -> incr repaired
       | Error `Full -> ())
    | Some _ | None -> ()
  done;
  check Alcotest.bool "some repairs" true (!repaired > 0);
  (* Residents the repairs relocated must still resolve exactly. The
     allowance is for a known gap in the placement veto (DESIGN.md §7):
     it stops a new entry from answering a tracked connection's lookup,
     but not a newcomer or a kicked victim from landing at a later stage
     behind an older entry that shares its row and digest. Such a resident
     is shadowed from its insert on; at this 8-bit geometry the 300
     plain inserts leave 1 (flow 260, behind flow 93). Rare at the
     paper's 16-bit digests; a fix moves placements, so the bound stays
     until ROADMAP item 6 closes the gap. *)
  let shadowed = ref 0 in
  List.iter
    (fun f ->
      match Silkroad.Conn_table.lookup t f with
      | Some r -> if not r.Silkroad.Conn_table.exact then incr shadowed
      | None -> Alcotest.fail "resident lost")
    residents;
  check Alcotest.bool
    (Printf.sprintf "shadowed residents %d <= 3" !shadowed)
    true (!shadowed <= 3)

(* ---------- Conn_table: flat shadow index vs the list-based reference ---------- *)

(* The ConnTable with its shadow index as a [Hashtbl] from packed
   position to a list of tuples, a [List.filter] per removal: the
   layout [Conn_table] replaced with a flat open-addressed multimap.
   Insert, remove and collision repair are copies of [Conn_table]'s,
   over the same cuckoo table, so the two must agree on every veto,
   placement and counter. *)
module Ref_conn_table = struct
  module Table = Asic.Cuckoo.Make (struct
    type t = Netcore.Five_tuple.t

    let equal = Netcore.Five_tuple.equal
    let range = Netcore.Five_tuple.range
    let bits = Netcore.Five_tuple.bits
  end)

  type t = {
    table : Table.t;
    digest_bits : int;
    n_rows : int;
    probe_index : (int, Netcore.Five_tuple.t list ref) Hashtbl.t;
    mutable false_hits : int;
    mutable repairs : int;
    (* the cuckoo table stores handles: one per tuple, for good *)
    keys : Netcore.Five_tuple.t array ref;
    ids : int Netcore.Five_tuple.Tbl.t;
  }

  let key t h = !(t.keys).(h)

  let handle t k =
    match Netcore.Five_tuple.Tbl.find t.ids k with
    | h -> h
    | exception Not_found ->
      let h = Netcore.Five_tuple.Tbl.length t.ids in
      if h = Array.length !(t.keys) then t.keys := Array.append !(t.keys) (Array.make (h + 1) k);
      !(t.keys).(h) <- k;
      Netcore.Five_tuple.Tbl.add t.ids k h;
      h

  let pack_pos t ~stage ~row ~digest = (((stage * t.n_rows) + row) lsl t.digest_bits) lor digest

  let register t k =
    List.iter
      (fun (stage, row, digest) ->
        let pos = pack_pos t ~stage ~row ~digest in
        match Hashtbl.find_opt t.probe_index pos with
        | Some l -> l := k :: !l
        | None -> Hashtbl.replace t.probe_index pos (ref [ k ]))
      (Table.probe_positions t.table k)

  let unregister t k =
    List.iter
      (fun (stage, row, digest) ->
        let pos = pack_pos t ~stage ~row ~digest in
        match Hashtbl.find_opt t.probe_index pos with
        | Some l ->
          l := List.filter (fun k' -> not (Netcore.Five_tuple.equal k' k)) !l;
          if !l = [] then Hashtbl.remove t.probe_index pos
        | None -> ())
      (Table.probe_positions t.table k)

  let placement_safe t k ~stage ~row =
    let _, _, digest = List.nth (Table.probe_positions t.table k) stage in
    match Hashtbl.find t.probe_index (pack_pos t ~stage ~row ~digest) with
    | l -> not (List.exists (fun k' -> not (Netcore.Five_tuple.equal k' k)) !l)
    | exception Not_found -> true

  let create (cfg : Silkroad.Config.t) =
    let keys = ref [||] in
    let t =
      {
        table =
          Table.create ~seed:cfg.Silkroad.Config.seed ~digest_bits:cfg.Silkroad.Config.digest_bits
            ~key_of:(fun h -> !keys.(h)) ~stages:cfg.Silkroad.Config.conn_table_stages
            ~rows_per_stage:cfg.Silkroad.Config.conn_table_rows
            ~ways:cfg.Silkroad.Config.conn_table_ways ();
        digest_bits = cfg.Silkroad.Config.digest_bits;
        n_rows = cfg.Silkroad.Config.conn_table_rows;
        probe_index = Hashtbl.create 16;
        false_hits = 0;
        repairs = 0;
        keys;
        ids = Netcore.Five_tuple.Tbl.create 64;
      }
    in
    Table.set_placement_filter t.table
      (Some (fun h ~stage ~row -> placement_safe t (key t h) ~stage ~row));
    t

  let lookup t flow =
    match Table.lookup t.table flow with
    | None -> None
    | Some hit ->
      if not hit.Table.exact then t.false_hits <- t.false_hits + 1;
      Some (hit.Table.value, hit.Table.exact)

  let insert t flow ~version =
    match Table.insert t.table (handle t flow) version with
    | Ok moves ->
      register t flow;
      Ok moves
    | (Error (`Full | `Duplicate)) as e -> e

  let remove t flow =
    if Table.remove t.table (handle t flow) then begin
      unregister t flow;
      true
    end
    else false

  let repair_collision t flow ~version =
    let exact_hit key =
      match Table.lookup t.table key with
      | Some hit -> hit.Table.exact
      | None -> false
    in
    let rec attempt forbidden tries residents =
      if tries > 2 * Table.stages t.table then Error `Full
      else
        match Table.lookup t.table flow with
        | Some hit when not hit.Table.exact ->
          let forbidden =
            if List.mem hit.Table.stage forbidden then forbidden else hit.Table.stage :: forbidden
          in
          (match Table.relocate t.table hit.Table.handle ~forbid_stages:forbidden with
           | Ok _ | Error `Not_found ->
             attempt forbidden (tries + 1) (key t hit.Table.handle :: residents)
           | Error `Full -> Error `Full)
        | Some _ | None ->
          (match
             if Table.mem_exact t.table flow then Ok 0
             else Table.insert ~forbid_stages:forbidden t.table (handle t flow) version
           with
           | Error `Full -> Error `Full
           | Error `Duplicate | Ok _ ->
             if not (exact_hit flow) then begin
               ignore (Table.remove t.table (handle t flow));
               attempt forbidden (tries + 1) residents
             end
             else
               let stale = List.filter (fun k -> not (exact_hit k)) residents in
               (match stale with
                | [] ->
                  t.repairs <- t.repairs + 1;
                  unregister t flow;
                  register t flow;
                  Ok ()
                | k :: _ ->
                  (match Table.lookup t.table k with
                   | Some h ->
                     let forbidden =
                       if List.mem h.Table.stage forbidden then forbidden
                       else h.Table.stage :: forbidden
                     in
                     ignore (Table.remove t.table (handle t flow));
                     attempt forbidden (tries + 1) residents
                   | None ->
                     ignore (Table.remove t.table (handle t flow));
                     Error `Full)))
    in
    attempt [] 0 []
end

type ct_op =
  | Ct_insert of int
  | Ct_remove of int
  | Ct_repair of int

(* Tables of 16-256 slots over 48 flows at 4-8-bit digests: full rows,
   digest collisions, repairs and failed inserts all occur. The flat
   index starts at 16 slots, so it grows several times and its
   clusters wrap around the end of the arrays. *)
let ct_differential_gen =
  QCheck.Gen.(
    let op =
      frequency
        [
          (5, map (fun i -> Ct_insert i) (int_bound 47));
          (3, map (fun i -> Ct_remove i) (int_bound 47));
          (2, map (fun i -> Ct_repair i) (int_bound 47));
        ]
    in
    quad (int_range 4 8) (int_range 2 4) (pair (int_range 2 16) (int_range 1 4))
      (list_size (int_range 1 200) op))

let ct_geometry (digest_bits, stages, (rows, ways), _) =
  { Silkroad.Config.default with
    Silkroad.Config.digest_bits;
    conn_table_stages = stages;
    conn_table_rows = rows;
    conn_table_ways = ways }

let ct_differential ((_, _, _, ops) as input) =
  let cfg = ct_geometry input in
  let t = Silkroad.Conn_table.create cfg and r = Ref_conn_table.create cfg in
  let flows = Array.init 48 flow in
  let same_vetoes () =
    Array.for_all
      (fun f ->
        List.for_all
          (fun (stage, row, _) ->
            Silkroad.Conn_table.placement_safe t f ~stage ~row
            = Ref_conn_table.placement_safe r f ~stage ~row)
          (Silkroad.Conn_table.probe_positions t f))
      flows
  in
  let same_op = function
    | Ct_insert i ->
      Silkroad.Conn_table.insert t flows.(i) ~version:(i mod 64)
      = Ref_conn_table.insert r flows.(i) ~version:(i mod 64)
    | Ct_remove i -> Silkroad.Conn_table.remove t flows.(i) = Ref_conn_table.remove r flows.(i)
    | Ct_repair i ->
      ignore (Silkroad.Conn_table.lookup t flows.(i));
      ignore (Ref_conn_table.lookup r flows.(i));
      Silkroad.Conn_table.repair_collision t flows.(i) ~version:(i mod 64)
      = Ref_conn_table.repair_collision r flows.(i) ~version:(i mod 64)
  in
  List.for_all (fun op -> same_op op && same_vetoes ()) ops
  && Array.for_all
       (fun f ->
         Silkroad.Conn_table.stage_of t f = Ref_conn_table.Table.stage_of_exact r.table f
         && Option.map
              (fun (x : Silkroad.Conn_table.lookup_result) ->
                (x.Silkroad.Conn_table.version, x.Silkroad.Conn_table.exact))
              (Silkroad.Conn_table.lookup t f)
            = Ref_conn_table.lookup r f)
       flows
  && Silkroad.Conn_table.size t = Ref_conn_table.Table.size r.table
  && Silkroad.Conn_table.moves t = Ref_conn_table.Table.moves r.table
  && Silkroad.Conn_table.greedy_kicks t = Ref_conn_table.Table.greedy_kicks r.table
  && Silkroad.Conn_table.bfs_expansions t = Ref_conn_table.Table.bfs_expansions r.table
  && Silkroad.Conn_table.failed_inserts t = Ref_conn_table.Table.failed_inserts r.table
  && Silkroad.Conn_table.repairs t = r.repairs
  && Silkroad.Conn_table.false_hits t = r.false_hits

(* Found by random search, then shrunk: the repair of the installed,
   shadowed flow 22 relocates the resident that answered its lookup,
   takes 22 out of the table to re-place it and then finds no room, so
   22 stays indexed while absent; the insert that follows indexes it a
   second time. Its removal must drop both copies, as the reference's
   [List.filter] does, or a stale copy keeps vetoing flows that share
   its positions. *)
let ct_index_double_registration () =
  let input =
    ( 4, 3, (6, 2),
      [ Ct_insert 18; Ct_repair 11; Ct_insert 26; Ct_insert 5; Ct_insert 22; Ct_repair 22;
        Ct_insert 22; Ct_remove 22 ] )
  in
  let t = Silkroad.Conn_table.create (ct_geometry input) in
  let insert i = ignore (Silkroad.Conn_table.insert t (flow i) ~version:(i mod 64)) in
  insert 18;
  ignore (Silkroad.Conn_table.repair_collision t (flow 11) ~version:11);
  List.iter insert [ 26; 5; 22 ];
  check Alcotest.bool "22 installed" true (Silkroad.Conn_table.mem_exact t (flow 22));
  check Alcotest.bool "22 shadowed" true
    (match Silkroad.Conn_table.lookup t (flow 22) with
     | Some r -> not r.Silkroad.Conn_table.exact
     | None -> false);
  check Alcotest.bool "22's repair finds no room" true
    (Silkroad.Conn_table.repair_collision t (flow 22) ~version:22 = Error `Full);
  check Alcotest.bool "22 left the table" false (Silkroad.Conn_table.mem_exact t (flow 22));
  check Alcotest.bool "flat = reference" true (ct_differential input)

let qcheck_ct_index_differential =
  QCheck.Test.make ~name:"flat shadow index = list-based reference" ~count:300
    (QCheck.make ct_differential_gen) ct_differential

(* ---------- Switch: control plane & 3-step update ---------- *)

let mk_switch ?(cfg = Silkroad.Config.default) ?(dips = [ 1; 2; 3; 4 ]) () =
  let sw = Silkroad.Switch.create cfg in
  Silkroad.Switch.add_vip sw vip (pool dips);
  sw

let syn i = Netcore.Packet.syn (flow i)
let data i = Netcore.Packet.data (flow i)
let fin i = Netcore.Packet.make ~flags:Netcore.Tcp_flags.fin ~payload_len:0 (flow i)

let switch_forwards () =
  let sw = mk_switch () in
  let o = Silkroad.Switch.process sw ~now:0. (syn 1) in
  (match o.Lb.Balancer.dip with
   | Some d -> check Alcotest.bool "to a member" true (List.mem d [ dip 1; dip 2; dip 3; dip 4 ])
   | None -> Alcotest.fail "dropped");
  check Alcotest.bool "asic" true (o.Lb.Balancer.location = Lb.Balancer.Asic)

let switch_learns_after_delay () =
  let sw = mk_switch () in
  ignore (Silkroad.Switch.process sw ~now:0. (syn 1));
  check Alcotest.int "not yet installed" 0 (Silkroad.Switch.connections sw);
  (* learning timeout 1 ms + insertion 5 us *)
  Silkroad.Switch.advance sw ~now:0.01;
  check Alcotest.int "installed" 1 (Silkroad.Switch.connections sw)

let switch_same_dip_before_after_install () =
  let sw = mk_switch () in
  let d0 = (Silkroad.Switch.process sw ~now:0. (syn 1)).Lb.Balancer.dip in
  let d1 = (Silkroad.Switch.process sw ~now:0.0002 (data 1)).Lb.Balancer.dip in
  Silkroad.Switch.advance sw ~now:0.05;
  let d2 = (Silkroad.Switch.process sw ~now:0.05 (data 1)).Lb.Balancer.dip in
  check Alcotest.bool "pending consistent" true (d0 = d1);
  check Alcotest.bool "installed consistent" true (d0 = d2)

let switch_fin_expires_entry () =
  let sw = mk_switch () in
  ignore (Silkroad.Switch.process sw ~now:0. (syn 1));
  Silkroad.Switch.advance sw ~now:0.01;
  check Alcotest.int "installed" 1 (Silkroad.Switch.connections sw);
  ignore (Silkroad.Switch.process sw ~now:1. (fin 1));
  Silkroad.Switch.advance sw ~now:1.1;
  check Alcotest.int "expired" 0 (Silkroad.Switch.connections sw)

(* A learning event can outlive the state it was raised for: a re-route
   tears the connection down while its event waits in the filter, and
   the flow's next packet creates a new record, whose own offer is a
   [`Duplicate]. The drained event resolves through the tracked flows
   by its tuple, so it installs the new connection. *)
let switch_event_outlives_state () =
  let sw = mk_switch () in
  ignore (Silkroad.Switch.process sw ~now:0. (syn 1));
  check Alcotest.int "forgotten" 1
    (Silkroad.Switch.forget_flows sw ~now:0.0001 (fun _ _ -> true));
  ignore (Silkroad.Switch.process sw ~now:0.0002 (data 1));
  Silkroad.Switch.advance sw ~now:0.01;
  check Alcotest.int "the new connection is installed" 1 (Silkroad.Switch.connections sw);
  check Alcotest.(result unit (list string)) "invariants" (Ok ())
    (Silkroad.Switch.check_invariants sw)

let switch_idle_timeout_gc () =
  let cfg = { Silkroad.Config.default with Silkroad.Config.idle_timeout = 1. } in
  let sw = mk_switch ~cfg () in
  ignore (Silkroad.Switch.process sw ~now:0. (syn 1));
  Silkroad.Switch.advance sw ~now:0.01;
  check Alcotest.int "installed" 1 (Silkroad.Switch.connections sw);
  (* never FINs; the idle GC reaps it *)
  Silkroad.Switch.advance sw ~now:3.;
  Silkroad.Switch.advance sw ~now:3.5;
  check Alcotest.int "reaped" 0 (Silkroad.Switch.connections sw)

let switch_update_keeps_old_flows () =
  let sw = mk_switch ~dips:[ 1; 2; 3; 4; 5; 6; 7; 8 ] () in
  let flows_before = List.init 60 (fun i -> (i, (Silkroad.Switch.process sw ~now:0. (syn i)).Lb.Balancer.dip)) in
  Silkroad.Switch.advance sw ~now:0.1;
  (* add a 9th dip: a plain rehash would move ~8/9 of flows *)
  Silkroad.Switch.request_update sw ~now:0.1 ~vip (Lb.Balancer.Dip_add (dip 9));
  Silkroad.Switch.advance sw ~now:0.2;
  List.iter
    (fun (i, d) ->
      let o = Silkroad.Switch.process sw ~now:0.2 (data i) in
      check Alcotest.bool "pinned through update" true (o.Lb.Balancer.dip = d))
    flows_before;
  let s = Silkroad.Switch.stats sw in
  check Alcotest.int "update done" 1 s.Silkroad.Switch.updates_completed

let switch_new_flows_use_new_pool () =
  let sw = mk_switch ~dips:[ 1 ] () in
  ignore (Silkroad.Switch.process sw ~now:0. (syn 1));
  Silkroad.Switch.advance sw ~now:0.1;
  Silkroad.Switch.request_update sw ~now:0.1 ~vip (Lb.Balancer.Dip_add (dip 2));
  Silkroad.Switch.advance sw ~now:0.3;
  (* the new pool has 2 dips; some new flow must land on dip 2 *)
  let landed = ref false in
  for i = 100 to 200 do
    if (Silkroad.Switch.process sw ~now:0.3 (syn i)).Lb.Balancer.dip = Some (dip 2) then
      landed := true
  done;
  check Alcotest.bool "new dip used" true !landed

let switch_pending_conns_protected () =
  (* connections that arrive while the update is in flight (the pending
     window) must stick to the old pool: this is TransitTable's job *)
  let cfg =
    { Silkroad.Config.default with
      Silkroad.Config.learning_timeout = 0.01;
      cpu_insertions_per_sec = 1000. }
  in
  let sw = mk_switch ~cfg ~dips:[ 1; 2; 3; 4; 5; 6; 7; 8 ] () in
  Silkroad.Switch.request_update sw ~now:0.0005 ~vip (Lb.Balancer.Dip_add (dip 9));
  (* flows arriving right around the request: pending when it executes *)
  let pending = List.init 40 (fun i -> (i, (Silkroad.Switch.process sw ~now:0.001 (syn i)).Lb.Balancer.dip)) in
  (* before any insertion completes, probe again *)
  List.iter
    (fun (i, d) ->
      let o = Silkroad.Switch.process sw ~now:0.002 (data i) in
      check Alcotest.bool "pending pinned" true (o.Lb.Balancer.dip = d))
    pending;
  (* let everything install and the update finish *)
  Silkroad.Switch.advance sw ~now:2.;
  List.iter
    (fun (i, d) ->
      let o = Silkroad.Switch.process sw ~now:2. (data i) in
      check Alcotest.bool "still pinned after install" true (o.Lb.Balancer.dip = d))
    pending;
  let s = Silkroad.Switch.stats sw in
  check Alcotest.int "no forced transitions" 0 s.Silkroad.Switch.forced_transitions;
  check Alcotest.int "update completed" 1 s.Silkroad.Switch.updates_completed

let switch_transit_cleared_after_updates () =
  (* slow the learning path down so the update's Recording window is
     still open when the second connection arrives *)
  let cfg = { Silkroad.Config.default with Silkroad.Config.learning_timeout = 0.05 } in
  let sw = mk_switch ~cfg () in
  ignore (Silkroad.Switch.process sw ~now:0. (syn 1));
  Silkroad.Switch.request_update sw ~now:0.001 ~vip (Lb.Balancer.Dip_add (dip 9));
  ignore (Silkroad.Switch.process sw ~now:0.002 (syn 2));
  check Alcotest.bool "recorded in bloom" true
    (Asic.Bloom_filter.population (Silkroad.Update_job.transit (Silkroad.Switch.jobs sw)) > 0);
  Silkroad.Switch.advance sw ~now:1.;
  check Alcotest.int "bloom cleared" 0
    (Asic.Bloom_filter.population (Silkroad.Update_job.transit (Silkroad.Switch.jobs sw)));
  check Alcotest.bool "clear counted" true
    ((Silkroad.Switch.stats sw).Silkroad.Switch.transit_clears >= 1)

let switch_updates_queue_per_vip () =
  let sw = mk_switch ~dips:[ 1; 2; 3; 4 ] () in
  Silkroad.Switch.request_update sw ~now:0. ~vip (Lb.Balancer.Dip_remove (dip 4));
  Silkroad.Switch.request_update sw ~now:0. ~vip (Lb.Balancer.Dip_add (dip 5));
  Silkroad.Switch.request_update sw ~now:0. ~vip (Lb.Balancer.Dip_remove (dip 1));
  Silkroad.Switch.advance sw ~now:5.;
  let s = Silkroad.Switch.stats sw in
  check Alcotest.int "all three ran" 3 s.Silkroad.Switch.updates_completed;
  (* final pool: {2, 3, 5} *)
  let seen = Hashtbl.create 8 in
  for i = 0 to 400 do
    match (Silkroad.Switch.process sw ~now:6. (syn i)).Lb.Balancer.dip with
    | Some d -> Hashtbl.replace seen d ()
    | None -> Alcotest.fail "dropped"
  done;
  check Alcotest.bool "dip1 gone" false (Hashtbl.mem seen (dip 1));
  check Alcotest.bool "dip4 gone" false (Hashtbl.mem seen (dip 4));
  check Alcotest.bool "dip5 present" true (Hashtbl.mem seen (dip 5))

let switch_version_recycling () =
  (* run many updates with live connections: far more updates than the
     2^6 version space, exercising release + reuse *)
  let sw = mk_switch ~dips:[ 1; 2; 3; 4 ] () in
  let now = ref 0. in
  for round = 0 to 99 do
    let d = 1 + (round mod 4) in
    ignore (Silkroad.Switch.process sw ~now:!now (syn round));
    Silkroad.Switch.request_update sw ~now:!now ~vip (Lb.Balancer.Dip_remove (dip d));
    now := !now +. 0.5;
    Silkroad.Switch.advance sw ~now:!now;
    Silkroad.Switch.request_update sw ~now:!now ~vip (Lb.Balancer.Dip_add (dip d));
    now := !now +. 0.5;
    Silkroad.Switch.advance sw ~now:!now
  done;
  let s = Silkroad.Switch.stats sw in
  check Alcotest.int "no failures" 0 s.Silkroad.Switch.updates_failed;
  check Alcotest.int "200 updates" 200 s.Silkroad.Switch.updates_completed;
  check Alcotest.int "no version exhaustion" 0
    (Silkroad.Dip_pool_table.version_exhaustions (Silkroad.Switch.pools sw));
  check Alcotest.bool "reuse happened" true
    (Silkroad.Dip_pool_table.reuses (Silkroad.Switch.pools sw) > 0)

let switch_syn_collision_repair () =
  let cfg =
    { Silkroad.Config.default with
      Silkroad.Config.digest_bits = 4;
      conn_table_rows = 64;
      conn_table_stages = 2;
      conn_table_ways = 4 }
  in
  let sw = mk_switch ~cfg () in
  (* install enough connections to make 4-bit collisions certain *)
  for i = 0 to 299 do
    ignore (Silkroad.Switch.process sw ~now:0. (syn i))
  done;
  Silkroad.Switch.advance sw ~now:1.;
  for i = 1000 to 1999 do
    ignore (Silkroad.Switch.process sw ~now:1. (syn i))
  done;
  Silkroad.Switch.advance sw ~now:2.;
  let s = Silkroad.Switch.stats sw in
  check Alcotest.bool "collisions observed" true (s.Silkroad.Switch.false_hits > 0);
  check Alcotest.bool "repairs ran" true (s.Silkroad.Switch.collision_repairs > 0);
  check Alcotest.bool "cpu handled syns" true (s.Silkroad.Switch.cpu_packets > 0)

let switch_unknown_vip () =
  let sw = Silkroad.Switch.create Silkroad.Config.default in
  let o = Silkroad.Switch.process sw ~now:0. (syn 1) in
  check Alcotest.bool "dropped" true (o.Lb.Balancer.dip = None);
  Alcotest.check_raises "update unknown"
    (Invalid_argument "Switch.request_update: unknown VIP") (fun () ->
      Silkroad.Switch.request_update sw ~now:0. ~vip (Lb.Balancer.Dip_add (dip 1)))

let switch_memory_accounting () =
  let sw = mk_switch () in
  let bits = Silkroad.Switch.memory_bits sw in
  check Alcotest.bool "includes conn table" true
    (bits >= Silkroad.Conn_table.sram_bits (Silkroad.Switch.conn_table sw));
  check Alcotest.bool "includes bloom" true
    (bits >= Asic.Bloom_filter.bits (Silkroad.Update_job.transit (Silkroad.Switch.jobs sw)))

(* ---------- Meters / isolation ---------- *)

let switch_meter_drops_red () =
  let sw = mk_switch () in
  (* 1 KB/s committed+excess: the third 1KB-ish packet in a burst is Red *)
  Silkroad.Switch.set_meter sw ~vip ~cir:1000. ~cbs:1100 ~eir:1000. ~ebs:1100;
  let outcomes =
    List.init 4 (fun i -> (Silkroad.Switch.process sw ~now:0.001 (data i)).Lb.Balancer.dip)
  in
  let drops = List.length (List.filter (fun d -> d = None) outcomes) in
  check Alcotest.bool "some packets dropped red" true (drops >= 1);
  check Alcotest.bool "metered counted" true (Silkroad.Switch.metered_drops sw >= 1);
  (* other VIPs unaffected *)
  let vip2 = Netcore.Endpoint.v4 20 0 0 2 80 in
  Silkroad.Switch.add_vip sw vip2 (pool [ 5; 6 ]);
  let f2 =
    Netcore.Five_tuple.make ~src:(Netcore.Endpoint.v4 9 9 9 9 999) ~dst:vip2
      ~proto:Netcore.Protocol.Tcp
  in
  let o = Silkroad.Switch.process sw ~now:0.001 (Netcore.Packet.syn f2) in
  check Alcotest.bool "unmetered vip forwards" true (o.Lb.Balancer.dip <> None);
  Silkroad.Switch.clear_meter sw ~vip;
  let o = Silkroad.Switch.process sw ~now:0.001 (data 99) in
  check Alcotest.bool "meter cleared" true (o.Lb.Balancer.dip <> None)

let switch_meter_unknown_vip () =
  let sw = Silkroad.Switch.create Silkroad.Config.default in
  Alcotest.check_raises "unknown" (Invalid_argument "Switch.set_meter: unknown VIP") (fun () ->
      Silkroad.Switch.set_meter sw ~vip ~cir:1. ~cbs:1 ~eir:1. ~ebs:1)

(* ---------- Hybrid (§7: combine with SLBs) ---------- *)

let hybrid_overflow_spills () =
  (* tiny ConnTable: once hot, new conns spill to the SLB and stay there *)
  let cfg =
    { Silkroad.Config.default with
      Silkroad.Config.conn_table_rows = 4;
      conn_table_stages = 2;
      conn_table_ways = 2 }
  in
  let h =
    Silkroad.Hybrid.create ~cfg ~overflow_threshold:0.5 ~seed:3 ~vips:[ (vip, pool [ 1; 2; 3; 4 ]) ] ()
  in
  let b = Silkroad.Hybrid.balancer h in
  for i = 0 to 63 do
    ignore (b.Lb.Balancer.process ~now:(0.01 *. float_of_int i) (syn i))
  done;
  b.Lb.Balancer.advance ~now:10.;
  for i = 64 to 127 do
    ignore (b.Lb.Balancer.process ~now:(10. +. (0.01 *. float_of_int i)) (syn i))
  done;
  check Alcotest.bool "spilled some" true (Silkroad.Hybrid.spilled_connections h > 0);
  (* a spilled connection is served by the SLB consistently, through updates *)
  let spilled_flow = 127 in
  let d0 = (b.Lb.Balancer.process ~now:12. (data spilled_flow)).Lb.Balancer.dip in
  b.Lb.Balancer.update ~now:13. ~vip (Lb.Balancer.Dip_remove (dip 4));
  b.Lb.Balancer.advance ~now:14.;
  let d1 = (b.Lb.Balancer.process ~now:14. (data spilled_flow)).Lb.Balancer.dip in
  check Alcotest.bool "spilled conn pinned" true (d0 = d1)

let hybrid_updates_reach_both () =
  (* a zero threshold spills every new connection to the SLB *)
  let h = Silkroad.Hybrid.create ~overflow_threshold:0. ~seed:3 ~vips:[ (vip, pool [ 3; 4 ]) ] () in
  let b = Silkroad.Hybrid.balancer h in
  b.Lb.Balancer.update ~now:0. ~vip (Lb.Balancer.Dip_remove (dip 3));
  b.Lb.Balancer.advance ~now:1.;
  (* all new conns now land on dip 4 *)
  for i = 0 to 20 do
    let o = b.Lb.Balancer.process ~now:1. (syn (1000 + i)) in
    check Alcotest.bool "at slb" true (o.Lb.Balancer.location = Lb.Balancer.Slb);
    check Alcotest.bool "new pool live at slb" true (o.Lb.Balancer.dip = Some (dip 4))
  done;
  check (Alcotest.float 0.) "slb tracks them" 21.
    (Telemetry.Registry.Gauge.value
       (Telemetry.Registry.gauge (b.Lb.Balancer.metrics ()) "hybrid.slb_connections"))

let udp_flow i =
  Netcore.Five_tuple.make
    ~src:(Netcore.Endpoint.v4 4 4 ((i / 60000) + 1) 4 (1 + (i mod 60000)))
    ~dst:vip ~proto:Netcore.Protocol.Udp

let switch_udp_connections () =
  (* UDP has no SYN/FIN: entries are learned from any packet and expire
     by idle timeout; PCC must hold across updates all the same *)
  let cfg = { Silkroad.Config.default with Silkroad.Config.idle_timeout = 2. } in
  let sw = mk_switch ~cfg ~dips:[ 1; 2; 3; 4; 5; 6; 7; 8 ] () in
  let pkt i = Netcore.Packet.make ~flags:(Netcore.Tcp_flags.of_byte 0) ~payload_len:256 (udp_flow i) in
  let before =
    List.init 40 (fun i -> (i, (Silkroad.Switch.process sw ~now:0. (pkt i)).Lb.Balancer.dip))
  in
  Silkroad.Switch.advance sw ~now:0.5;
  check Alcotest.int "udp entries learned" 40 (Silkroad.Switch.connections sw);
  Silkroad.Switch.request_update sw ~now:0.5 ~vip (Lb.Balancer.Dip_add (dip 9));
  Silkroad.Switch.advance sw ~now:1.;
  List.iter
    (fun (i, d) ->
      check Alcotest.bool "udp pinned" true
        ((Silkroad.Switch.process sw ~now:1. (pkt i)).Lb.Balancer.dip = d))
    before;
  (* silence: the idle timer reaps them *)
  Silkroad.Switch.advance sw ~now:5.;
  Silkroad.Switch.advance sw ~now:8.;
  check Alcotest.int "udp entries expired" 0 (Silkroad.Switch.connections sw)

(* The table behind the overflow tests: 2 stages x 4 rows x 2 ways, 16
   slots, so a burst of SYNs fills it and overflows. *)
let tiny_table_cfg =
  { Silkroad.Config.default with
    Silkroad.Config.conn_table_rows = 4;
    conn_table_stages = 2;
    conn_table_ways = 2 }

(* A flow parked on the overflow queue is uninstalled and unended:
   pending, so an update requested meanwhile waits for it in step 1
   until its retries succeed or give up. One left stateless after
   giving up is still pending, so a later update on its VIP waits for
   it too — here until the barrier deadline force-releases it. The
   model's [mjob] rule pins the same predicate. 64 SYNs fill the 16
   slots and park 48 flows; each is retried twice, one batch per
   control-plane step, and gives up. *)
let switch_overflow_gates_later_barrier () =
  let sw = mk_switch ~cfg:tiny_table_cfg () in
  for i = 0 to 63 do
    ignore (Silkroad.Switch.process sw ~now:0. (syn i))
  done;
  Silkroad.Switch.advance sw ~now:0.1;
  let stats () = Silkroad.Switch.stats sw in
  check Alcotest.int "the table overflowed" 48 (stats ()).Silkroad.Switch.insert_overflows;
  check Alcotest.int "16 installed" 16 (Silkroad.Switch.connections sw);
  Silkroad.Switch.request_update sw ~now:0.1 ~vip (Lb.Balancer.Dip_add (dip 9));
  check Alcotest.int "held by the queued flows" 1
    (Silkroad.Update_job.pending (Silkroad.Switch.jobs sw));
  (* one retry batch per control-plane step *)
  Silkroad.Switch.advance sw ~now:0.2;
  check Alcotest.int "first retries" 48 (stats ()).Silkroad.Switch.overflow_retries;
  check Alcotest.int "re-queued, none given up" 0 (stats ()).Silkroad.Switch.table_full_drops;
  check Alcotest.int "a re-queue keeps the barrier" 0 (stats ()).Silkroad.Switch.updates_completed;
  List.iter (fun now -> Silkroad.Switch.advance sw ~now) [ 0.3; 0.4 ];
  check Alcotest.int "second retries" 96 (stats ()).Silkroad.Switch.overflow_retries;
  check Alcotest.int "retries gave up" 48 (stats ()).Silkroad.Switch.table_full_drops;
  check Alcotest.int "overflows counted once a flow" 48 (stats ()).Silkroad.Switch.insert_overflows;
  check Alcotest.int "released when they gave up" 1 (stats ()).Silkroad.Switch.updates_completed;
  Silkroad.Switch.request_update sw ~now:0.5 ~vip (Lb.Balancer.Dip_add (dip 10));
  Silkroad.Switch.advance sw ~now:2.;
  check Alcotest.int "a later update waits on the stateless flows" 1
    (Silkroad.Update_job.pending (Silkroad.Switch.jobs sw));
  Silkroad.Switch.advance sw ~now:(0.6 +. Silkroad.Update_job.barrier_deadline);
  check Alcotest.int "until force-released" 1 (stats ()).Silkroad.Switch.forced_transitions;
  check Alcotest.int "then completed" 2 (stats ()).Silkroad.Switch.updates_completed;
  check Alcotest.int "no retry after giving up" 96 (stats ()).Silkroad.Switch.overflow_retries;
  check Alcotest.bool "invariants" true (Silkroad.Switch.check_invariants sw = Ok ())

let tracked_flows sw =
  Telemetry.Registry.Gauge.value
    (Telemetry.Registry.gauge (Silkroad.Switch.metrics sw) "switch.tracked_flows")

let installed sw i = Silkroad.Conn_table.mem_exact (Silkroad.Switch.conn_table sw) (flow i)

(* The two other ends of a parked flow: it ends while parked, and its
   next retry tears its state down instead of installing it; or a FIN
   frees a slot, and its next retry installs it and releases the
   barrier it held. *)
let switch_overflow_retry_outcomes () =
  (* flow 63 is parked, then its FIN arrives before the first retry *)
  let sw = mk_switch ~cfg:tiny_table_cfg () in
  for i = 0 to 63 do
    ignore (Silkroad.Switch.process sw ~now:0. (syn i))
  done;
  Silkroad.Switch.advance sw ~now:0.1;
  check Alcotest.bool "flow 63 parked" false (installed sw 63);
  check (Alcotest.float 0.) "64 tracked" 64. (tracked_flows sw);
  ignore (Silkroad.Switch.process sw ~now:0.1 (fin 63));
  Silkroad.Switch.advance sw ~now:0.2;
  check (Alcotest.float 0.) "the retry tore the ended flow down" 63. (tracked_flows sw);
  List.iter (fun now -> Silkroad.Switch.advance sw ~now) [ 0.3; 0.4 ];
  let stats = Silkroad.Switch.stats sw in
  check Alcotest.int "torn down, not re-queued" 95 stats.Silkroad.Switch.overflow_retries;
  check Alcotest.int "the rest gave up" 47 stats.Silkroad.Switch.table_full_drops;
  check Alcotest.bool "invariants after a teardown" true
    (Silkroad.Switch.check_invariants sw = Ok ());
  (* 15 SYNs install 14 flows and park flow 14; flow 0's FIN frees a
     slot after the first retry was submitted, so the second one
     installs flow 14 *)
  let sw = mk_switch ~cfg:tiny_table_cfg () in
  for i = 0 to 14 do
    ignore (Silkroad.Switch.process sw ~now:0. (syn i))
  done;
  Silkroad.Switch.advance sw ~now:0.1;
  check Alcotest.bool "flow 14 parked" false (installed sw 14);
  check Alcotest.int "one overflow" 1 (Silkroad.Switch.stats sw).Silkroad.Switch.insert_overflows;
  Silkroad.Switch.request_update sw ~now:0.1 ~vip (Lb.Balancer.Dip_add (dip 9));
  ignore (Silkroad.Switch.process sw ~now:0.1 (fin 0));
  Silkroad.Switch.advance sw ~now:0.2;
  let stats = Silkroad.Switch.stats sw in
  check Alcotest.int "the first retry failed" 1 stats.Silkroad.Switch.overflow_retries;
  check Alcotest.int "the FIN's delete freed a slot" 13 (Silkroad.Switch.connections sw);
  check Alcotest.int "the parked flow holds the barrier" 1
    (Silkroad.Update_job.pending (Silkroad.Switch.jobs sw));
  Silkroad.Switch.advance sw ~now:0.3;
  let stats = Silkroad.Switch.stats sw in
  check Alcotest.int "second retry" 2 stats.Silkroad.Switch.overflow_retries;
  check Alcotest.bool "installed" true (installed sw 14);
  check Alcotest.int "nothing given up" 0 stats.Silkroad.Switch.table_full_drops;
  check Alcotest.int "the install released the barrier" 1 stats.Silkroad.Switch.updates_completed;
  check Alcotest.bool "invariants after the install" true
    (Silkroad.Switch.check_invariants sw = Ok ())

(* ---------- pending set: invariants under random command streams ---------- *)

type sw_cmd =
  | Syn of int
  | Data of int
  | Fin of int
  | Wait of float  (** advance the clock by this much *)
  | Idle  (** advance past the idle timeout *)
  | Update of int * int  (** VIP side; add / remove / replace a DIP *)
  | Backlog of int  (** CPU work items *)
  | Forget of int  (** re-route the flows with this hash bit *)
  | Vip_readd  (** vip-remove then vip-add of the second VIP *)
  | Vip_remove  (** vip-remove of the second VIP, leaving it absent *)
  | Vip_add  (** vip-add of the second VIP when absent *)
  | Meter of int * bool  (** VIP side; set a tight meter / clear it *)

let vip2 = Netcore.Endpoint.v4 20 0 0 2 80

(* 24 flows over two VIPs *)
let side_flow i =
  Netcore.Five_tuple.make
    ~src:(Netcore.Endpoint.v4 1 2 3 4 (1000 + i))
    ~dst:(if i mod 2 = 0 then vip else vip2)
    ~proto:Netcore.Protocol.Tcp

let pp_sw_cmd = function
  | Syn i -> Printf.sprintf "syn %d" i
  | Data i -> Printf.sprintf "data %d" i
  | Fin i -> Printf.sprintf "fin %d" i
  | Wait dt -> Printf.sprintf "wait %g" dt
  | Idle -> "idle"
  | Update (v, k) -> Printf.sprintf "update %d/%d" v k
  | Backlog n -> Printf.sprintf "backlog %d" n
  | Forget b -> Printf.sprintf "forget %d" b
  | Vip_readd -> "vip-readd"
  | Vip_remove -> "vip-remove"
  | Vip_add -> "vip-add"
  | Meter (v, on) -> Printf.sprintf "meter %d %s" v (if on then "set" else "clear")

let gen_sw_cmd =
  QCheck.Gen.(
    let flow = int_bound 23 in
    frequency
      [ (6, map (fun i -> Syn i) flow);
        (5, map (fun i -> Data i) flow);
        (3, map (fun i -> Fin i) flow);
        (4, map (fun dt -> Wait dt) (oneofl [ 0.0002; 0.001; 0.003; 0.01; 0.05 ]));
        (1, return Idle);
        (2, map2 (fun v k -> Update (v, k)) (int_bound 1) (int_bound 5));
        (1, map (fun n -> Backlog n) (int_range 1 20));
        (1, map (fun b -> Forget b) (int_bound 1));
        (1, return Vip_readd);
        (1, return Vip_remove);
        (1, return Vip_add);
        (1, map2 (fun v on -> Meter (v, on)) (int_bound 1) bool) ])

(* a 16-slot table, 4-bit digests and a slow CPU: inserts hit [Full]
   and the overflow queue, SYNs false-hit and repair, and connections
   stay pending long enough for updates to wait on them *)
let pending_cfg =
  { Silkroad.Config.default with
    Silkroad.Config.digest_bits = 4;
    conn_table_rows = 4;
    conn_table_stages = 2;
    conn_table_ways = 2;
    learning_capacity = 8;
    cpu_insertions_per_sec = 2000.;
    idle_timeout = 0.5 }

let pool_of_side v = if v = 0 then pool [ 1; 2; 3 ] else pool [ 4; 5; 6 ]

let run_sw_cmd sw now cmd =
  let pkt mk i = ignore (Silkroad.Switch.process sw ~now:!now (mk (side_flow i))) in
  match cmd with
  | Syn i -> pkt Netcore.Packet.syn i
  | Data i -> pkt Netcore.Packet.data i
  | Fin i -> pkt (Netcore.Packet.make ~flags:Netcore.Tcp_flags.fin ~payload_len:0) i
  | Wait dt ->
    now := !now +. dt;
    Silkroad.Switch.advance sw ~now:!now
  | Idle ->
    now := !now +. (2. *. pending_cfg.Silkroad.Config.idle_timeout);
    Silkroad.Switch.advance sw ~now:!now
  | Update (v, k) ->
    let base = if v = 0 then 1 else 4 in
    let u =
      match k with
      | 0 | 1 -> Lb.Balancer.Dip_add (dip (base + 3 + k))
      | 2 | 3 -> Lb.Balancer.Dip_remove (dip (base + k - 2))
      | _ -> Lb.Balancer.Dip_replace { old_dip = dip (base + k - 4); new_dip = dip (base + 5) }
    in
    if v = 0 || Silkroad.Switch.has_vip sw vip2 then
      Silkroad.Switch.request_update sw ~now:!now ~vip:(if v = 0 then vip else vip2) u
  | Backlog n -> Silkroad.Switch.inject_cpu_backlog sw ~now:!now ~work_items:n
  | Forget b ->
    ignore
      (Silkroad.Switch.forget_flows sw ~now:!now (fun f _ -> Netcore.Five_tuple.bits ~seed:7 f 1 = b))
  | Vip_readd ->
    (* refused (no state touched) while an update on it is in flight *)
    (match Silkroad.Switch.remove_vip sw vip2 with
     | () -> Silkroad.Switch.add_vip sw vip2 (pool_of_side 1)
     | exception Invalid_argument _ -> ())
  | Vip_remove -> (
    (* refused while absent or while an update on it is in flight *)
    try Silkroad.Switch.remove_vip sw vip2 with Invalid_argument _ -> ())
  | Vip_add ->
    if not (Silkroad.Switch.has_vip sw vip2) then
      Silkroad.Switch.add_vip sw vip2 (pool_of_side 1)
  | Meter (v, on) ->
    let vip = if v = 0 then vip else vip2 in
    (* a few hundred bytes a second: most bursts go Red *)
    if not on then Silkroad.Switch.clear_meter sw ~vip
    else if Silkroad.Switch.has_vip sw vip then
      Silkroad.Switch.set_meter sw ~vip ~cir:200. ~cbs:200 ~eir:200. ~ebs:200

let invariants_hold_throughout cmds =
  let sw = Silkroad.Switch.create ~check:`Off pending_cfg in
  Silkroad.Switch.add_vip sw vip (pool_of_side 0);
  Silkroad.Switch.add_vip sw vip2 (pool_of_side 1);
  let now = ref 0. in
  List.for_all
    (fun cmd ->
      run_sw_cmd sw now cmd;
      match Silkroad.Switch.check_invariants sw with
      | Ok () -> true
      | Error problems ->
        QCheck.Test.fail_reportf "after %s: %s" (pp_sw_cmd cmd) (String.concat "; " problems))
    cmds

let qcheck_switch_invariants =
  QCheck.Test.make ~name:"invariants hold after every command" ~count:300
    (QCheck.make
       ~print:(fun cmds -> String.concat ", " (List.map pp_sw_cmd cmds))
       QCheck.Gen.(list_size (int_range 20 150) gen_sw_cmd))
    invariants_hold_throughout

(* Handle lifetime. Six tuples over two VIPs, so every tuple is reused:
   a FIN, an idle expiry, a re-route or a VIP removal ends a connection
   while its learning event, insert or delete may still be queued at
   the slow CPU, and a SYN on the same tuple starts a newer one, which
   may get the freed handle of another. Before each packet the
   ConnTable is asked, by tuple, for the flow's entry; an exact hit
   must then forward by the ASIC to the DIP of exactly that entry's
   version, and leave the entry as it was. After every command the
   switch's invariants hold: every entry's handle names the connection
   [flows] maps its tuple to, and no free handle is held by the pending
   vector, the wheel, the learning filter or queued CPU work. *)
let gen_lifetime_cmd =
  QCheck.Gen.(
    let flow = int_bound 5 in
    frequency
      [ (5, map (fun i -> Syn i) flow);
        (5, map (fun i -> Data i) flow);
        (3, map (fun i -> Fin i) flow);
        (4, map (fun dt -> Wait dt) (oneofl [ 0.0002; 0.001; 0.003; 0.01 ]));
        (1, return Idle);
        (2, map (fun b -> Forget b) (int_bound 1));
        (1, return Vip_readd);
        (1, return Vip_remove);
        (1, return Vip_add);
        (1, map (fun n -> Backlog n) (int_range 1 20)) ])

let handles_track_connections cmds =
  let sw = Silkroad.Switch.create ~check:`Off pending_cfg in
  Silkroad.Switch.add_vip sw vip (pool_of_side 0);
  Silkroad.Switch.add_vip sw vip2 (pool_of_side 1);
  let ct = Silkroad.Switch.conn_table sw in
  let now = ref 0. in
  let exact_hit_forwarded i =
    let f = side_flow i in
    let before = Silkroad.Conn_table.lookup ct f in
    let v = f.Netcore.Five_tuple.dst in
    match before with
    | Some { Silkroad.Conn_table.exact = true; version } when Silkroad.Switch.has_vip sw v ->
      let out = Silkroad.Switch.process sw ~now:!now (Netcore.Packet.data f) in
      let expected =
        Silkroad.Dip_pool_table.select_dip_fast (Silkroad.Switch.pools sw) ~vip:v ~version f
          ~none:Silkroad.Switch.no_dip
      in
      (out.Lb.Balancer.location = Lb.Balancer.Asic
       && (match out.Lb.Balancer.dip with Some d -> d == expected | None -> expected == Silkroad.Switch.no_dip)
       && Silkroad.Conn_table.lookup ct f = before)
      || QCheck.Test.fail_reportf "exact hit on %d (version %d) went elsewhere" i version
    | Some _ | None ->
      ignore (Silkroad.Switch.process sw ~now:!now (Netcore.Packet.data f));
      true
  in
  List.for_all
    (fun cmd ->
      (match cmd with Data i -> exact_hit_forwarded i | _ -> (run_sw_cmd sw now cmd; true))
      &&
      match Silkroad.Switch.check_invariants sw with
      | Ok () -> true
      | Error problems ->
        QCheck.Test.fail_reportf "after %s: %s" (pp_sw_cmd cmd) (String.concat "; " problems))
    cmds

let qcheck_handle_lifetime =
  QCheck.Test.make ~name:"handles stay bound to their connections" ~count:300
    (QCheck.make
       ~print:(fun cmds -> String.concat ", " (List.map pp_sw_cmd cmds))
       QCheck.Gen.(list_size (int_range 20 200) gen_lifetime_cmd))
    handles_track_connections

(* With one version bit a VIP has two version numbers. A connection
   pins the first, an update takes the second, and the next update
   finds none free: it aborts with [Versions_exhausted] while a third
   waits behind it. The abort reports [`Failed] with old = new, and the
   queued update then starts and completes (a substitution reuse needs
   no free number). *)
let switch_exhausted_update_with_queue () =
  let cfg = { Silkroad.Config.default with Silkroad.Config.version_bits = 1 } in
  let sw = Silkroad.Switch.create ~check:`Off cfg in
  Silkroad.Switch.add_vip sw vip (pool [ 1; 2; 3; 4 ]);
  let reports = ref [] in
  Silkroad.Update_job.on_done (Silkroad.Switch.jobs sw) (fun r -> reports := r :: !reports);
  let invariants what =
    check Alcotest.(result unit (list string)) ("invariants " ^ what) (Ok ())
      (Silkroad.Switch.check_invariants sw)
  in
  let step what f =
    f ();
    invariants what
  in
  step "first flow" (fun () -> ignore (Silkroad.Switch.process sw ~now:0. (syn 1)));
  step "installed" (fun () -> Silkroad.Switch.advance sw ~now:0.01);
  step "update A" (fun () ->
      Silkroad.Switch.request_update sw ~now:0.01 ~vip (Lb.Balancer.Dip_remove (dip 4)));
  step "second flow" (fun () -> ignore (Silkroad.Switch.process sw ~now:0.02 (syn 2)));
  step "update B" (fun () ->
      Silkroad.Switch.request_update sw ~now:0.02 ~vip (Lb.Balancer.Dip_remove (dip 3)));
  step "update C" (fun () ->
      Silkroad.Switch.request_update sw ~now:0.02 ~vip (Lb.Balancer.Dip_add (dip 4)));
  check Alcotest.int "B gated by the second flow, C queued" 2
    (Silkroad.Update_job.pending (Silkroad.Switch.jobs sw));
  step "barrier released" (fun () -> Silkroad.Switch.advance sw ~now:0.05);
  check Alcotest.int "nothing pending" 0 (Silkroad.Update_job.pending (Silkroad.Switch.jobs sw));
  let s = Silkroad.Switch.stats sw in
  check Alcotest.int "B failed" 1 s.Silkroad.Switch.updates_failed;
  check Alcotest.int "A and C completed" 2 s.Silkroad.Switch.updates_completed;
  match List.rev !reports with
  | [ a; b; c ] ->
    let outcome (r : Silkroad.Update_job.report) =
      match r.ur_outcome with `Completed -> "completed" | `Failed -> "failed"
    in
    check Alcotest.(list string) "outcomes" [ "completed"; "failed"; "completed" ]
      (List.map outcome [ a; b; c ]);
    check Alcotest.bool "each names the VIP's record" true
      (List.for_all
         (fun (r : Silkroad.Update_job.report) ->
           r.ur_vip == Silkroad.Vip_table.find (Silkroad.Switch.vip_table sw) vip)
         [ a; b; c ]);
    check Alcotest.int "B's old = new" b.ur_old_version b.ur_new_version;
    check Alcotest.int "B left A's version current" a.ur_new_version b.ur_new_version;
    check Alcotest.int "C reused the first version" a.ur_old_version c.ur_new_version
  | l -> Alcotest.failf "%d reports" (List.length l)

(* A CPU backlog longer than the barrier deadline holds both VIPs'
   step-1 barriers; one [advance] past the deadline force-releases
   both, and both updates complete. *)
let switch_two_barriers_forced () =
  let sw = mk_switch () in
  Silkroad.Switch.add_vip sw vip2 (pool [ 5; 6; 7 ]);
  ignore (Silkroad.Switch.process sw ~now:0. (syn 1));
  ignore (Silkroad.Switch.process sw ~now:0. (Netcore.Packet.syn (side_flow 1)));
  (* 10 s of insert work ahead of both learning events *)
  Silkroad.Switch.inject_cpu_backlog sw ~now:0.0001 ~work_items:2_000_000;
  Silkroad.Switch.request_update sw ~now:0.0002 ~vip (Lb.Balancer.Dip_remove (dip 4));
  Silkroad.Switch.request_update sw ~now:0.0002 ~vip:vip2 (Lb.Balancer.Dip_remove (dip 7));
  Silkroad.Switch.advance sw ~now:5.;
  check Alcotest.int "both held" 2 (Silkroad.Update_job.pending (Silkroad.Switch.jobs sw));
  Silkroad.Switch.advance sw ~now:5.5;
  let s = Silkroad.Switch.stats sw in
  check Alcotest.int "both force-released" 2 s.Silkroad.Switch.forced_transitions;
  check Alcotest.int "both completed" 2 s.Silkroad.Switch.updates_completed;
  check Alcotest.int "nothing pending" 0 (Silkroad.Update_job.pending (Silkroad.Switch.jobs sw));
  check Alcotest.(result unit (list string)) "invariants" (Ok ())
    (Silkroad.Switch.check_invariants sw);
  Silkroad.Switch.advance sw ~now:11.;
  check Alcotest.int "the held flows installed" 2 (Silkroad.Switch.connections sw);
  check Alcotest.(result unit (list string)) "invariants once installed" (Ok ())
    (Silkroad.Switch.check_invariants sw)

(* ---------- Health_checker (§7) ---------- *)

let health_detects_failure () =
  let down = Hashtbl.create 4 in
  let is_alive d = not (Hashtbl.mem down d) in
  let dips = List.map dip [ 1; 2; 3 ] in
  let hc = Silkroad.Health_checker.create ~interval:10. ~threshold:3 ~is_alive ~dips () in
  (* all healthy: no events over three rounds *)
  check Alcotest.int "quiet" 0 (List.length (Silkroad.Health_checker.advance hc ~now:25.));
  (* dip 2 dies: detected after 3 missed probes (30s) *)
  Hashtbl.replace down (dip 2) ();
  let events = Silkroad.Health_checker.advance hc ~now:65. in
  check Alcotest.int "one event" 1 (List.length events);
  (match events with
   | [ (d, `Down) ] -> check Alcotest.bool "right dip" true (Netcore.Endpoint.equal d (dip 2))
   | _ -> Alcotest.fail "expected one Down");
  check Alcotest.bool "marked" true (Silkroad.Health_checker.is_marked_down hc (dip 2));
  (* recovery is announced on the next probe *)
  Hashtbl.remove down (dip 2);
  let events = Silkroad.Health_checker.advance hc ~now:75. in
  (match events with
   | [ (d, `Up) ] -> check Alcotest.bool "up" true (Netcore.Endpoint.equal d (dip 2))
   | _ -> Alcotest.fail "expected one Up");
  check Alcotest.bool "unmarked" false (Silkroad.Health_checker.is_marked_down hc (dip 2))

let health_flap_needs_threshold () =
  let alive = ref false in
  let hc =
    Silkroad.Health_checker.create ~interval:1. ~threshold:3 ~is_alive:(fun _ -> !alive)
      ~dips:[ dip 1 ] ()
  in
  (* alternate up/down faster than the threshold: never declared down *)
  let events = ref [] in
  for i = 0 to 19 do
    alive := i mod 2 = 0;
    events := !events @ Silkroad.Health_checker.advance hc ~now:(float_of_int i)
  done;
  check Alcotest.int "no transitions" 0 (List.length !events)

let health_bandwidth_anchor () =
  (* §7: 10K DIPs / 10 s / 100-byte probes ~ 800 Kbps *)
  let bps = Silkroad.Health_checker.probe_bandwidth_bps ~dips:10_000 ~interval:10. ~probe_bytes:100 in
  check Alcotest.bool (Printf.sprintf "%.0f bps ~ 800k" bps) true (bps = 800_000.)

let health_drives_switch_updates () =
  (* end to end: checker events feed the switch's update queue *)
  let down = Hashtbl.create 4 in
  let is_alive d = not (Hashtbl.mem down d) in
  let dips_l = List.map dip [ 1; 2; 3; 4 ] in
  let sw = mk_switch ~dips:[ 1; 2; 3; 4 ] () in
  let hc = Silkroad.Health_checker.create ~interval:5. ~threshold:2 ~is_alive ~dips:dips_l () in
  Hashtbl.replace down (dip 3) ();
  let apply now =
    List.iter
      (fun (d, ev) ->
        let u = match ev with `Down -> Lb.Balancer.Dip_remove d | `Up -> Lb.Balancer.Dip_add d in
        Silkroad.Switch.request_update sw ~now ~vip u)
      (Silkroad.Health_checker.advance hc ~now)
  in
  apply 20.;
  Silkroad.Switch.advance sw ~now:21.;
  (* no new connection may land on the dead DIP *)
  for i = 0 to 200 do
    match (Silkroad.Switch.process sw ~now:21. (syn i)).Lb.Balancer.dip with
    | Some d -> check Alcotest.bool "avoids dead dip" false (Netcore.Endpoint.equal d (dip 3))
    | None -> Alcotest.fail "dropped"
  done;
  (* recovery re-adds it (exercising version reuse) *)
  Hashtbl.remove down (dip 3);
  apply 40.;
  Silkroad.Switch.advance sw ~now:41.;
  let reached = ref false in
  for i = 300 to 600 do
    if (Silkroad.Switch.process sw ~now:41. (syn i)).Lb.Balancer.dip = Some (dip 3) then
      reached := true
  done;
  check Alcotest.bool "recovered dip reachable" true !reached

(* A DIP flapping faster than interval*threshold must not oscillate the
   switch's pool membership: the checker never reports a transition, so
   no update is ever requested and the published version stays put. *)
let health_flap_pool_membership_stable () =
  let sw = mk_switch ~dips:[ 1; 2; 3; 4 ] () in
  let alive = ref true in
  let hc =
    Silkroad.Health_checker.create ~interval:1. ~threshold:3
      ~is_alive:(fun d -> if Netcore.Endpoint.equal d (dip 2) then !alive else true)
      ~dips:(List.map dip [ 1; 2; 3; 4 ]) ()
  in
  let versions_before = (Silkroad.Switch.stats sw).Silkroad.Switch.updates_completed in
  (* flap with a 2 s period against a 3 s detection window, for 30 s *)
  for i = 0 to 29 do
    alive := i mod 2 = 0;
    let now = float_of_int i in
    List.iter
      (fun (d, ev) ->
        let u = match ev with `Down -> Lb.Balancer.Dip_remove d | `Up -> Lb.Balancer.Dip_add d in
        Silkroad.Switch.request_update sw ~now ~vip u)
      (Silkroad.Health_checker.advance hc ~now);
    Silkroad.Switch.advance sw ~now
  done;
  check Alcotest.int "no updates applied"
    versions_before
    (Silkroad.Switch.stats sw).Silkroad.Switch.updates_completed;
  check Alcotest.bool "never marked down" false (Silkroad.Health_checker.is_marked_down hc (dip 2));
  (* the flapping dip is still a member: new connections can land on it *)
  let reached = ref false in
  for i = 700 to 1000 do
    if (Silkroad.Switch.process sw ~now:31. (syn i)).Lb.Balancer.dip = Some (dip 2) then
      reached := true
  done;
  check Alcotest.bool "flapping dip still in pool" true !reached

(* A health-checker recovery re-adds the DIP through the version-reuse
   path: the pool state after re-add matches a previously published
   version, so the allocator reuses it instead of burning a new one. *)
let health_recovery_reuses_version () =
  let sw = mk_switch ~dips:[ 1; 2; 3; 4 ] () in
  let down = Hashtbl.create 4 in
  let hc =
    Silkroad.Health_checker.create ~interval:5. ~threshold:2
      ~is_alive:(fun d -> not (Hashtbl.mem down d))
      ~dips:(List.map dip [ 1; 2; 3; 4 ]) ()
  in
  let apply now =
    List.iter
      (fun (d, ev) ->
        let u = match ev with `Down -> Lb.Balancer.Dip_remove d | `Up -> Lb.Balancer.Dip_add d in
        Silkroad.Switch.request_update sw ~now ~vip u)
      (Silkroad.Health_checker.advance hc ~now)
  in
  (* live connections keep the original version referenced, so the pool
     state the re-add restores is still registered and can be reused *)
  for i = 0 to 50 do
    ignore (Silkroad.Switch.process sw ~now:10. (syn i))
  done;
  Silkroad.Switch.advance sw ~now:12.;
  check Alcotest.int "no reuse yet" 0 (Silkroad.Dip_pool_table.reuses (Silkroad.Switch.pools sw));
  Hashtbl.replace down (dip 3) ();
  apply 20.;
  Silkroad.Switch.advance sw ~now:25.;
  Hashtbl.remove down (dip 3);
  apply 40.;
  Silkroad.Switch.advance sw ~now:45.;
  check Alcotest.bool "re-add reused a version" true
    (Silkroad.Dip_pool_table.reuses (Silkroad.Switch.pools sw) > 0)

(* ---------- Memory_model ---------- *)

let mm_entry_bits () =
  (* paper: IPv6 naive entry = 37B key + 18B action + overhead *)
  check Alcotest.int "naive v6" ((37 * 8) + (18 * 8) + 6)
    (Silkroad.Memory_model.conn_entry_bits ~layout:Silkroad.Memory_model.Naive ~ipv6:true
       ~digest_bits:16 ~version_bits:6);
  check Alcotest.int "digest+version" 28
    (Silkroad.Memory_model.conn_entry_bits ~layout:Silkroad.Memory_model.Digest_version
       ~ipv6:true ~digest_bits:16 ~version_bits:6)

let mm_10m_naive_overflows () =
  (* "storing the states of ten million connections ... takes a few
     hundreds of MB" vs <=100MB available *)
  let naive =
    Silkroad.Memory_model.conn_table_bits ~layout:Silkroad.Memory_model.Naive ~ipv6:true
      ~digest_bits:16 ~version_bits:6 ~connections:10_000_000
  in
  check Alcotest.bool "naive 10M v6 > 100 MB" true (Silkroad.Memory_model.mb naive > 100.);
  let compact =
    Silkroad.Memory_model.switch_bits ~layout:Silkroad.Memory_model.Digest_version ~ipv6:true
      ~digest_bits:16 ~version_bits:6 ~connections:10_000_000 ~versions:64 ~total_dips:4187
  in
  check Alcotest.bool "compact 10M v6 fits 50 MB" true (Silkroad.Memory_model.mb compact < 50.)

let mm_dippool_anchor () =
  (* "64 versions of 4187 IPv6 DIPs" ~ 4.8 MB *)
  let bits = Silkroad.Memory_model.dip_pool_table_bits ~ipv6:true ~versions:64 ~total_dips:4187 in
  let mb = Silkroad.Memory_model.mb bits in
  check Alcotest.bool (Printf.sprintf "%.2f MB ~ 4.8" mb) true (mb > 4. && mb < 6.)

let mm_saving_bounds () =
  check (Alcotest.float 1e-9) "half" 50. (Silkroad.Memory_model.saving_percent ~baseline:100 ~compact:50);
  check (Alcotest.float 1e-9) "zero base" 0. (Silkroad.Memory_model.saving_percent ~baseline:0 ~compact:10)

let mm_table1 () =
  let gens = Silkroad.Memory_model.asic_generations in
  check Alcotest.int "three generations" 3 (List.length gens);
  let last = List.nth gens 2 in
  check Alcotest.int "2016" 2016 last.Silkroad.Memory_model.gen_year;
  check Alcotest.int "100 MB" 100 last.Silkroad.Memory_model.gen_sram_mb_hi

(* ---------- Cost_model ---------- *)

let cost_ratios () =
  let c = Silkroad.Cost_model.power_and_cost () in
  check Alcotest.bool
    (Printf.sprintf "power ratio %.0f ~ 500" c.Silkroad.Cost_model.power_ratio)
    true
    (c.Silkroad.Cost_model.power_ratio > 400. && c.Silkroad.Cost_model.power_ratio < 650.);
  check Alcotest.bool
    (Printf.sprintf "cost ratio %.0f ~ 250" c.Silkroad.Cost_model.cost_ratio)
    true
    (c.Silkroad.Cost_model.cost_ratio > 180. && c.Silkroad.Cost_model.cost_ratio < 320.)

let cost_counts () =
  (* the paper's sizing example: 15 Tbps needs 1500 SLBs at 10G NICs *)
  let d = Silkroad.Cost_model.demand_of_traffic ~gbps:15_000. ~avg_packet_bytes:800 ~connections:10_000_000 in
  check Alcotest.int "1500 slbs" 1500 (Silkroad.Cost_model.slb_count d);
  check Alcotest.int "3 silkroads (traffic-bound)" 3 (Silkroad.Cost_model.silkroad_count d);
  (* a connection-bound cluster *)
  let d2 = Silkroad.Cost_model.demand_of_traffic ~gbps:100. ~avg_packet_bytes:800 ~connections:25_000_000 in
  check Alcotest.int "conn bound" 3 (Silkroad.Cost_model.silkroad_count d2)

(* ---------- Program (Table 2) ---------- *)

let program_shape () =
  let p = Silkroad.Program.table2 ~connections:1_000_000 ~vips:1024 in
  (* Table 2's qualitative shape: TCAM untouched; every other class in
     (0, 50%]; SALUs the largest consumer *)
  check (Alcotest.float 1e-9) "tcam 0" 0. p.Asic.Resources.p_tcam;
  let fields =
    [ p.Asic.Resources.p_match_crossbar; p.Asic.Resources.p_sram; p.Asic.Resources.p_vliw;
      p.Asic.Resources.p_hash_bits; p.Asic.Resources.p_stateful_alus ]
  in
  List.iter (fun f -> check Alcotest.bool "in (0,60)" true (f > 0. && f < 60.)) fields;
  check Alcotest.bool "phv tiny" true (p.Asic.Resources.p_phv < 3.);
  check Alcotest.bool "salu largest" true
    (List.for_all (fun f -> p.Asic.Resources.p_stateful_alus >= f -. 1e-9) fields)

let program_scales_with_connections () =
  let r1 = Silkroad.Program.additional_resources ~connections:1_000_000 ~vips:1024 in
  let r10 = Silkroad.Program.additional_resources ~connections:10_000_000 ~vips:1024 in
  check Alcotest.bool "sram grows roughly linearly" true
    (r10.Asic.Resources.sram_bits > 6 * r1.Asic.Resources.sram_bits);
  check Alcotest.int "crossbar unchanged" r1.Asic.Resources.match_crossbar_bits
    r10.Asic.Resources.match_crossbar_bits

(* ---------- Assignment ---------- *)

let mb_bits mb = mb * 8 * 1024 * 1024

let assignment_basic () =
  let layers =
    [ { Silkroad.Assignment.layer_name = "tor"; switches = 4; sram_budget_bits = mb_bits 10;
        capacity_gbps = 1000. };
      { Silkroad.Assignment.layer_name = "core"; switches = 2; sram_budget_bits = mb_bits 50;
        capacity_gbps = 6000. } ]
  in
  let vips =
    List.init 20 (fun i ->
        { Silkroad.Assignment.vip = Netcore.Endpoint.v4 20 0 0 (i + 1) 80;
          conn_bits = mb_bits 4; traffic_gbps = 100. })
  in
  let p = Silkroad.Assignment.assign ~layers ~vips in
  check Alcotest.int "all placed" 20 (List.length p.Silkroad.Assignment.assignment);
  check Alcotest.int "none unplaced" 0 (List.length p.Silkroad.Assignment.unplaced);
  check Alcotest.bool "within budget" true (p.Silkroad.Assignment.max_sram_utilization <= 1.);
  (* both layers should be used: min-max balancing *)
  let used_layers =
    List.sort_uniq String.compare (List.map snd p.Silkroad.Assignment.assignment)
  in
  check Alcotest.int "both layers" 2 (List.length used_layers)

let assignment_overflow_reported () =
  let layers =
    [ { Silkroad.Assignment.layer_name = "tor"; switches = 1; sram_budget_bits = mb_bits 1;
        capacity_gbps = 10. } ]
  in
  let vips =
    [ { Silkroad.Assignment.vip = vip; conn_bits = mb_bits 100; traffic_gbps = 1. } ]
  in
  let p = Silkroad.Assignment.assign ~layers ~vips in
  check Alcotest.int "unplaced" 1 (List.length p.Silkroad.Assignment.unplaced)

let assignment_respects_traffic () =
  let layers =
    [ { Silkroad.Assignment.layer_name = "tiny-pipe"; switches = 1; sram_budget_bits = mb_bits 100;
        capacity_gbps = 1. };
      { Silkroad.Assignment.layer_name = "fat-pipe"; switches = 1; sram_budget_bits = mb_bits 100;
        capacity_gbps = 10_000. } ]
  in
  let vips =
    [ { Silkroad.Assignment.vip = vip; conn_bits = mb_bits 1; traffic_gbps = 500. } ]
  in
  let p = Silkroad.Assignment.assign ~layers ~vips in
  check (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string)) "goes to fat pipe"
    [ (Netcore.Endpoint.to_string vip, "fat-pipe") ]
    (List.map (fun (v, l) -> (Netcore.Endpoint.to_string v, l)) p.Silkroad.Assignment.assignment)

let suites =
  [
    ( "silkroad.version",
      [
        tc "alloc/release" `Quick version_alloc_release;
        tc "ring order" `Quick version_ring_buffer_order;
        tc "exhaustion" `Quick version_exhaustion;
        tc "double release" `Quick version_double_release;
        QCheck_alcotest.to_alcotest qcheck_version_never_double_allocates;
      ] );
    ( "silkroad.dip_pool_table",
      [
        tc "basics" `Quick dpt_basics;
        tc "remove creates version" `Quick dpt_publish_remove_creates_version;
        tc "version reuse" `Quick dpt_version_reuse;
        tc "re-add same dip" `Quick dpt_readd_same_dip_reuses;
        tc "refcount destroys" `Quick dpt_refcount_destroys;
        tc "current survives" `Quick dpt_current_survives_zero_refs;
        tc "gc" `Quick dpt_gc;
        tc "bad updates" `Quick dpt_bad_updates;
        tc "reuse picks the lowest version" `Quick dpt_reuse_picks_lowest;
        tc "reuse of a mid-pool removal" `Quick dpt_reuse_mid_pool;
      ] );
    ( "silkroad.update_job",
      [ tc "phases" `Quick update_job_phases; tc "cancel to idle" `Quick update_job_cancel ] );
    ( "silkroad.conn_table",
      [
        tc "insert/lookup" `Quick ct_insert_lookup;
        tc "remove" `Quick ct_remove;
        tc "entry bits" `Quick ct_entry_bits;
        tc "collision repair" `Quick ct_false_positive_repair;
        tc "repair preserves residents" `Quick ct_repair_preserves_residents;
        tc "index drops every copy" `Quick ct_index_double_registration;
        QCheck_alcotest.to_alcotest qcheck_ct_index_differential;
      ] );
    ( "silkroad.switch",
      [
        tc "forwards" `Quick switch_forwards;
        tc "learning delay" `Quick switch_learns_after_delay;
        tc "consistent around install" `Quick switch_same_dip_before_after_install;
        tc "fin expires" `Quick switch_fin_expires_entry;
        tc "learning event outlives its state" `Quick switch_event_outlives_state;
        tc "idle gc" `Quick switch_idle_timeout_gc;
        tc "update keeps old flows" `Quick switch_update_keeps_old_flows;
        tc "new flows new pool" `Quick switch_new_flows_use_new_pool;
        tc "pending protected (3-step)" `Quick switch_pending_conns_protected;
        tc "transit cleared" `Quick switch_transit_cleared_after_updates;
        tc "updates queue" `Quick switch_updates_queue_per_vip;
        tc "version recycling" `Quick switch_version_recycling;
        tc "syn collision repair" `Quick switch_syn_collision_repair;
        tc "unknown vip" `Quick switch_unknown_vip;
        tc "memory accounting" `Quick switch_memory_accounting;
        tc "udp connections" `Quick switch_udp_connections;
        tc "overflowed flows gate a later barrier" `Quick switch_overflow_gates_later_barrier;
        tc "overflow retry tears down or installs" `Quick switch_overflow_retry_outcomes;
        tc "exhausted update with one queued" `Quick switch_exhausted_update_with_queue;
        tc "two barriers force-released at once" `Quick switch_two_barriers_forced;
        QCheck_alcotest.to_alcotest qcheck_switch_invariants;
        QCheck_alcotest.to_alcotest qcheck_handle_lifetime;
      ] );
    ( "silkroad.isolation",
      [
        tc "meter drops red" `Quick switch_meter_drops_red;
        tc "meter unknown vip" `Quick switch_meter_unknown_vip;
      ] );
    ( "silkroad.hybrid",
      [
        tc "overflow spills" `Quick hybrid_overflow_spills;
        tc "updates reach both" `Quick hybrid_updates_reach_both;
      ] );
    ( "silkroad.health",
      [
        tc "detects failure & recovery" `Quick health_detects_failure;
        tc "flapping below threshold" `Quick health_flap_needs_threshold;
        tc "probe bandwidth" `Quick health_bandwidth_anchor;
        tc "drives switch updates" `Quick health_drives_switch_updates;
        tc "flap keeps pool stable" `Quick health_flap_pool_membership_stable;
        tc "recovery reuses version" `Quick health_recovery_reuses_version;
      ] );
    ( "silkroad.memory_model",
      [
        tc "entry bits" `Quick mm_entry_bits;
        tc "10M scaling" `Quick mm_10m_naive_overflows;
        tc "dippool anchor" `Quick mm_dippool_anchor;
        tc "saving bounds" `Quick mm_saving_bounds;
        tc "table 1" `Quick mm_table1;
      ] );
    ( "silkroad.cost_model",
      [ tc "ratios" `Quick cost_ratios; tc "counts" `Quick cost_counts ] );
    ( "silkroad.program",
      [
        tc "table 2 shape" `Quick program_shape;
        tc "scales with conns" `Quick program_scales_with_connections;
      ] );
    ( "silkroad.p4_sketch",
      [
        tc "emits the program" `Quick (fun () ->
            let p4 = Silkroad.P4_sketch.emit Silkroad.Config.default in
            List.iter
              (fun needle ->
                check Alcotest.bool needle true
                  (let re = Str.regexp_string needle in
                   try ignore (Str.search_forward re p4 0); true with Not_found -> false))
              [ "conn_table"; "vip_table"; "dip_pool_table"; "learn_table"; "transit_bank_0";
                "bit<16>  conn_digest"; "bit<6>   pool_version"; "size = 1048576";
                "register<bit<1>>(2048)" ]);
        tc "about 400 lines" `Quick (fun () ->
            (* the paper: "defined in a 400 line P4 program" *)
            let n =
              List.length (String.split_on_char '\n' (Silkroad.P4_sketch.emit Silkroad.Config.default))
            in
            check Alcotest.bool (Printf.sprintf "%d lines in [250, 500]" n) true
              (n >= 250 && n <= 500));
      ] );
    ( "silkroad.assignment",
      [
        tc "basic" `Quick assignment_basic;
        tc "overflow" `Quick assignment_overflow_reported;
        tc "traffic constraint" `Quick assignment_respects_traffic;
      ] );
  ]

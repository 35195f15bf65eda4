type cluster_class =
  | Pop
  | Frontend
  | Backend

type t = {
  name : string;
  cls : cluster_class;
  n_tors : int;
  n_vips : int;
  dips_per_vip : int;
  total_dips : int;  (** distinct DIPs in the cluster (VIPs share DIPs) *)
  ipv6 : bool;
  conns_per_tor_median : float;
  conns_per_tor_p99 : float;
  new_conns_per_vip_min_median : float;
  new_conns_per_vip_min_p99 : float;
  updates_per_min_median : float;
  updates_per_min_p99 : float;
  gbps_per_tor : float;
}

let class_name = function
  | Pop -> "PoP"
  | Frontend -> "Frontend"
  | Backend -> "Backend"

(* Calibration anchors, per class. Each field is the (median, p99) of a
   lognormal describing how that statistic varies ACROSS clusters of the
   class. Anchors come from the paper's figures:
   - Fig. 6: most-loaded PoPs ~11M active conns/ToR, Backends ~15M,
     Frontends well under 1M;
   - Fig. 8: new conns per VIP-minute reach 50M, typical ~10-100K;
   - Fig. 2: 32% of clusters >10 updates/min at p99 minute; half of
     Backends >16; some PoPs/Frontends >100 (shared-DIP bursts). *)
type anchors = {
  a_conns_p99 : float * float;  (* across-cluster spread of per-ToR p99 conns *)
  a_new_conns_med : float * float;  (* per-VIP new conns per minute, median *)
  a_updates_p99 : float * float;
  a_tors : int * int;  (* min/max ToRs *)
  a_vips : int * int;
  a_dips : int * int;
  a_gbps : float * float;
}

let anchors = function
  | Pop ->
    {
      a_conns_p99 = (2.0e6, 11.0e6);
      a_new_conns_med = (2.0e4, 2.0e6);
      a_updates_p99 = (4., 120.);
      a_tors = (8, 48);
      a_vips = (64, 256);
      a_dips = (16, 128);
      a_gbps = (4., 20.);
    }
  | Frontend ->
    {
      a_conns_p99 = (8.0e4, 9.0e5);
      a_new_conns_med = (2.0e3, 1.0e5);
      a_updates_p99 = (3., 60.);
      a_tors = (8, 64);
      a_vips = (32, 128);
      a_dips = (16, 256);
      a_gbps = (2., 15.);
    }
  | Backend ->
    {
      a_conns_p99 = (2.0e6, 15.0e6);
      a_new_conns_med = (1.0e4, 5.0e6);
      a_updates_p99 = (16., 150.);
      a_tors = (16, 96);
      a_vips = (64, 512);
      a_dips = (32, 512);
      a_gbps = (6., 400.);
    }

let draw rng (median, p99) =
  Dist.sample (Dist.lognormal_of_quantiles ~median ~p99) rng

let int_range rng (lo, hi) = lo + Prng.int rng (Int.max 1 (hi - lo + 1))

let sample ~rng cls i =
  let a = anchors cls in
  (* A quarter of Backends are volume-centric (§6.1): "connections there
     are typically volume-centric traffic across services (e.g. storage)
     and the prevalent use of persistent connections" — huge traffic,
     few connections. These are the clusters where one SilkRoad replaces
     hundreds of SLBs. *)
  let a =
    if cls = Backend && Prng.uniform rng < 0.25 then
      { a with a_conns_p99 = (1.5e5, 1.5e6); a_gbps = (60., 400.) }
    else a
  in
  let conns_p99 = draw rng a.a_conns_p99 in
  (* within a cluster the median minute carries ~40-70% of the p99 load *)
  let conns_med = conns_p99 *. (0.4 +. Prng.float rng 0.3) in
  let new_conns_med = draw rng a.a_new_conns_med in
  let new_conns_p99 = new_conns_med *. (3. +. Prng.float rng 22.) in
  let upd_p99 = draw rng a.a_updates_p99 in
  let upd_med = upd_p99 *. (0.05 +. Prng.float rng 0.35) in
  let n_vips = int_range rng a.a_vips in
  let dips_per_vip = int_range rng a.a_dips in
  {
    name = Printf.sprintf "%s-%02d" (class_name cls) i;
    cls;
    n_tors = int_range rng a.a_tors;
    n_vips;
    dips_per_vip;
    (* DIPs are shared across VIPs ("a DIP is often shared by most of
       the VIPs", §3.1); the peak cluster of the paper hosts ~4.2K DIPs *)
    total_dips = Int.max 32 (Int.min 6000 (n_vips * dips_per_vip / 8));
    ipv6 = (match cls with Backend -> true | Pop | Frontend -> false);
    conns_per_tor_median = conns_med;
    conns_per_tor_p99 = conns_p99;
    new_conns_per_vip_min_median = new_conns_med;
    new_conns_per_vip_min_p99 = new_conns_p99;
    updates_per_min_median = upd_med;
    updates_per_min_p99 = upd_p99;
    gbps_per_tor = draw rng a.a_gbps;
  }

let population ?(n = 96) ~rng () =
  assert (n >= 3);
  let per = n / 3 in
  let mk cls count base =
    List.init count (fun i -> sample ~rng cls (base + i))
  in
  mk Pop per 0 @ mk Frontend per 0 @ mk Backend (n - (2 * per)) 0

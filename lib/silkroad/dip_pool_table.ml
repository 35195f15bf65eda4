type pool_info = {
  mutable pool : Lb.Dip_pool.t;
  mutable refs : int;
}

type vip_state = {
  versions : (int, pool_info) Hashtbl.t;
  allocator : Version.t;
  (* one-slot (version -> pool_info) cache for the packet fast path;
     [cv = -1] means empty. Invalidated when the cached version is
     destroyed (version numbers are recycled, so a stale entry could
     otherwise alias a reallocated version's new pool). *)
  mutable cv : int;
  mutable ci : pool_info option;
}

type t = {
  seed : int;
  vips : (Netcore.Endpoint.t, vip_state) Hashtbl.t;
  version_bits : int;
  mutable reuses : int;
  (* one-slot VIP cache as two fields, so a hit returns the stored
     option instead of boxing a fresh one per packet; invalidated by
     [remove_vip], the only way an entry ever leaves the table *)
  mutable vc_vip : Netcore.Endpoint.t;
  mutable vc : vip_state option;
}

let create ~version_bits ~seed =
  {
    seed;
    vips = Hashtbl.create 64;
    version_bits;
    reuses = 0;
    vc_vip = Netcore.Endpoint.none;
    vc = None;
  }

let add_vip t vip pool =
  if Hashtbl.mem t.vips vip then Error `Exists
  else begin
    let allocator = Version.create ~bits:t.version_bits in
    let v = match Version.allocate allocator with Ok v -> v | Error `Exhausted -> assert false in
    let versions = Hashtbl.create 8 in
    Hashtbl.replace versions v { pool; refs = 0 };
    Hashtbl.replace t.vips vip { versions; allocator; cv = -1; ci = None };
    Ok v
  end

let has_vip t vip = Hashtbl.mem t.vips vip

let remove_vip t vip =
  Hashtbl.remove t.vips vip;
  if Netcore.Endpoint.equal t.vc_vip vip then begin
    t.vc_vip <- Netcore.Endpoint.none;
    t.vc <- None
  end

let vips t = Hashtbl.fold (fun vip _ acc -> vip :: acc) t.vips []

let info t ~vip ~version =
  match Hashtbl.find_opt t.vips vip with
  | None -> None
  | Some vs -> Hashtbl.find_opt vs.versions version

let pool t ~vip ~version =
  match info t ~vip ~version with
  | Some i -> Some i.pool
  | None -> None

let select_dip t ~vip ~version flow =
  match pool t ~vip ~version with
  | None -> None
  | Some p -> if Lb.Dip_pool.is_empty p then None else Some (Lb.Dip_pool.select_flow ~seed:t.seed p flow)

let find_vip_state t vip =
  match t.vc with
  | Some _ when Netcore.Endpoint.equal t.vc_vip vip -> t.vc
  | Some _ | None ->
    (match Hashtbl.find_opt t.vips vip with
     | Some _ as r ->
       t.vc_vip <- vip;
       t.vc <- r;
       r
     | None -> None)

(* Allocation-free [select_dip]: returns the caller's [none] sentinel
   (intended to be [Netcore.Endpoint.none], compared with [==]) instead
   of wrapping the DIP in an option. Same selection as [select_dip]. *)
let select_dip_fast t ~vip ~version flow ~none =
  match find_vip_state t vip with
  | None -> none
  | Some vs ->
    let i =
      if vs.cv = version then vs.ci
      else
        match Hashtbl.find_opt vs.versions version with
        | Some _ as r ->
          vs.cv <- version;
          vs.ci <- r;
          r
        | None -> None
    in
    (match i with
     | None -> none
     | Some i ->
       if Lb.Dip_pool.is_empty i.pool then none
       else Lb.Dip_pool.select_flow ~seed:t.seed i.pool flow)

(* Version reuse (§4.2). Two forms:
   - equal-pool reuse: an allocated version already holds exactly the
     target pool (e.g. a DIP flaps down and up, or rolling reboots
     revisit a pool state) — make that version current again;
   - substitution reuse: an allocated version holds the current pool
     plus exactly one extra member [r]; adding [d] is served by
     substituting [d] for [r] in that pool. *)
let find_equal_pool vs ~target =
  Hashtbl.fold
    (fun v (i : pool_info) acc ->
      match acc with
      | Some _ -> acc
      | None -> if Lb.Dip_pool.equal i.pool target then Some v else None)
    vs.versions None

let find_reusable vs ~current ~current_pool ~new_dip =
  let candidate = ref None in
  Hashtbl.iter
    (fun v (i : pool_info) ->
      if !candidate = None && v <> current then begin
        let members = Lb.Dip_pool.members i.pool in
        if Array.length members = Lb.Dip_pool.size current_pool + 1 then begin
          let extra =
            Array.to_list members
            |> List.filter (fun m -> not (Lb.Dip_pool.mem current_pool m))
          in
          match extra with
          | [ r ] ->
            if Lb.Dip_pool.equal (Lb.Dip_pool.remove i.pool r) current_pool
               && (Netcore.Endpoint.equal r new_dip || not (Lb.Dip_pool.mem i.pool new_dip))
            then candidate := Some (v, i, r)
          | _ :: _ | [] -> ()
        end
      end)
    vs.versions;
  !candidate

let publish t ~vip ~current update =
  match Hashtbl.find_opt t.vips vip with
  | None -> Error `No_such_vip
  | Some vs ->
    (match Hashtbl.find_opt vs.versions current with
     | None -> Error (`Bad_update "current version unknown")
     | Some cur_info ->
       let current_pool = cur_info.pool in
       let fresh_or_equal pool =
         match find_equal_pool vs ~target:pool with
         | Some v ->
           t.reuses <- t.reuses + 1;
           Ok v
         | None ->
           (match Version.allocate vs.allocator with
            | Ok v ->
              Hashtbl.replace vs.versions v { pool; refs = 0 };
              Ok v
            | Error `Exhausted -> Error `Versions_exhausted)
       in
       let fresh = fresh_or_equal in
       (match update with
        | Lb.Balancer.Dip_remove d ->
          if not (Lb.Dip_pool.mem current_pool d) then
            Error (`Bad_update "removing absent DIP")
          else fresh (Lb.Dip_pool.remove current_pool d)
        | Lb.Balancer.Dip_add d ->
          if Lb.Dip_pool.mem current_pool d then Error (`Bad_update "adding present DIP")
          else
            (match find_reusable vs ~current ~current_pool ~new_dip:d with
             | Some (v, i, r) ->
               if not (Netcore.Endpoint.equal r d) then
                 i.pool <- Lb.Dip_pool.replace i.pool ~old_dip:r ~new_dip:d;
               t.reuses <- t.reuses + 1;
               Ok v
             | None -> fresh (Lb.Dip_pool.add current_pool d))
        | Lb.Balancer.Dip_replace { old_dip; new_dip } ->
          if not (Lb.Dip_pool.mem current_pool old_dip) then
            Error (`Bad_update "replacing absent DIP")
          else if Lb.Dip_pool.mem current_pool new_dip then
            Error (`Bad_update "replacement DIP already present")
          else fresh (Lb.Dip_pool.replace current_pool ~old_dip ~new_dip)))

let destroy_if_dead t ~vip vs version ~current =
  match Hashtbl.find_opt vs.versions version with
  | Some i when i.refs = 0 && version <> current ->
    Hashtbl.remove vs.versions version;
    Version.release vs.allocator version;
    if vs.cv = version then begin
      vs.cv <- -1;
      vs.ci <- None
    end;
    ignore vip;
    ignore t
  | Some _ | None -> ()

let retain t ~vip ~version =
  match info t ~vip ~version with
  | Some i -> i.refs <- i.refs + 1
  | None -> invalid_arg "Dip_pool_table.retain: unknown version"

let release t ~vip ~version ~current =
  match Hashtbl.find_opt t.vips vip with
  | None -> invalid_arg "Dip_pool_table.release: unknown VIP"
  | Some vs ->
    (match Hashtbl.find_opt vs.versions version with
     | None -> invalid_arg "Dip_pool_table.release: unknown version"
     | Some i ->
       if i.refs <= 0 then invalid_arg "Dip_pool_table.release: refcount underflow";
       i.refs <- i.refs - 1;
       destroy_if_dead t ~vip vs version ~current)

let gc t ~vip ~current =
  match Hashtbl.find_opt t.vips vip with
  | None -> ()
  | Some vs ->
    let dead =
      Hashtbl.fold
        (fun v (i : pool_info) acc -> if i.refs = 0 && v <> current then v :: acc else acc)
        vs.versions []
    in
    List.iter (fun v -> destroy_if_dead t ~vip vs v ~current) dead

let refcount t ~vip ~version =
  match info t ~vip ~version with
  | Some i -> i.refs
  | None -> 0

let live_versions t ~vip =
  match Hashtbl.find_opt t.vips vip with
  | None -> 0
  | Some vs -> Hashtbl.length vs.versions

let version_exhaustions t =
  Hashtbl.fold (fun _ vs acc -> acc + Version.exhaustions vs.allocator) t.vips 0

let reuses t = t.reuses

let sram_bits t =
  Hashtbl.fold
    (fun vip vs acc ->
      let vip_bits = Netcore.Endpoint.size_bytes vip * 8 in
      Hashtbl.fold
        (fun _v (i : pool_info) acc ->
          let member_bits =
            Array.fold_left
              (fun b d -> b + (Netcore.Endpoint.size_bytes d * 8))
              0 (Lb.Dip_pool.members i.pool)
          in
          acc + vip_bits + t.version_bits + member_bits)
        vs.versions acc)
    t.vips 0

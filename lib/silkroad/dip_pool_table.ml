type info = {
  version : int;
  mutable pool : Lb.Dip_pool.t;
  mutable refs : int;
}

type vip = {
  (* the allocated versions, in the order the reuse scans and [gc] visit
     them: that order decides which version a reuse picks and the order
     in which freed numbers return to the allocator, so it stays a
     [Hashtbl] *)
  versions : (int, info) Hashtbl.t;
  (* the same versions indexed by number, [free] when not allocated:
     the (VIP, version) match of the packet path, without hashing *)
  slots : info array;
  (* every free slot holds this placeholder: version -1 and an empty
     pool, so a selection through a free slot finds no DIP. Never
     retained or released. *)
  free : info;
  allocator : Version.t;
}

type t = {
  seed : int;
  vips : vip Netcore.Endpoint.Tbl.t;
  version_bits : int;
  mutable reuses : int;
}

let create ~version_bits ~seed =
  { seed; vips = Netcore.Endpoint.Tbl.create 64; version_bits; reuses = 0 }

let install vs v pool =
  let i = { version = v; pool; refs = 0 } in
  Hashtbl.replace vs.versions v i;
  vs.slots.(v) <- i

let add_vip t vip pool =
  if Netcore.Endpoint.Tbl.mem t.vips vip then Error `Exists
  else begin
    let allocator = Version.create ~bits:t.version_bits in
    let v = match Version.allocate allocator with Ok v -> v | Error `Exhausted -> assert false in
    let free = { version = -1; pool = Lb.Dip_pool.of_list []; refs = 0 } in
    let vs =
      {
        versions = Hashtbl.create 8;
        slots = Array.make (Version.capacity allocator) free;
        free;
        allocator;
      }
    in
    install vs v pool;
    Netcore.Endpoint.Tbl.replace t.vips vip vs;
    Ok (vs, v)
  end

let remove_vip t vip = Netcore.Endpoint.Tbl.remove t.vips vip

let lookup vs version =
  if version >= 0 && version < Array.length vs.slots then Array.unsafe_get vs.slots version
  else vs.free

let allocated vs version = lookup vs version != vs.free

let select t i flow ~none =
  if Lb.Dip_pool.is_empty i.pool then none else Lb.Dip_pool.select_flow ~seed:t.seed i.pool flow

let select_dip_fast t ~vip ~version flow ~none =
  match Netcore.Endpoint.Tbl.find t.vips vip with
  | vs -> select t (lookup vs version) flow ~none
  | exception Not_found -> none

(* Version reuse (§4.2). Two forms:
   - equal-pool reuse: an allocated version already holds exactly the
     target pool (e.g. a DIP flaps down and up, or rolling reboots
     revisit a pool state) — make that version current again;
   - substitution reuse: an allocated version holds the current pool
     plus exactly one extra member [r]; adding [d] is served by
     substituting [d] for [r] in that pool. *)
let find_equal_pool vs ~target =
  Hashtbl.fold
    (fun v (i : info) acc ->
      match acc with
      | Some _ -> acc
      | None -> if Lb.Dip_pool.equal i.pool target then Some v else None)
    vs.versions None

let find_reusable vs ~current ~current_pool ~new_dip =
  let candidate = ref None in
  Hashtbl.iter
    (fun v (i : info) ->
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

let publish t vs ~current update =
  let cur_info = lookup vs current in
  if cur_info == vs.free then Error (`Bad_update "current version unknown")
  else begin
    let current_pool = cur_info.pool in
    let fresh pool =
      match find_equal_pool vs ~target:pool with
      | Some v ->
        t.reuses <- t.reuses + 1;
        Ok v
      | None ->
        (match Version.allocate vs.allocator with
         | Ok v ->
           install vs v pool;
           Ok v
         | Error `Exhausted -> Error `Versions_exhausted)
    in
    match update with
    | Lb.Balancer.Dip_remove d ->
      if not (Lb.Dip_pool.mem current_pool d) then Error (`Bad_update "removing absent DIP")
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
      else fresh (Lb.Dip_pool.replace current_pool ~old_dip ~new_dip)
  end

let destroy_if_dead vs version ~current =
  let i = lookup vs version in
  if i != vs.free && i.refs = 0 && version <> current then begin
    Hashtbl.remove vs.versions version;
    vs.slots.(version) <- vs.free;
    Version.release vs.allocator version
  end

let retain i =
  if i.version < 0 then invalid_arg "Dip_pool_table.retain: unknown version";
  i.refs <- i.refs + 1

let release vs i ~current =
  if i.version < 0 || lookup vs i.version != i then
    invalid_arg "Dip_pool_table.release: unknown version";
  if i.refs <= 0 then invalid_arg "Dip_pool_table.release: refcount underflow";
  i.refs <- i.refs - 1;
  destroy_if_dead vs i.version ~current

let gc vs ~current =
  let dead =
    Hashtbl.fold
      (fun v (i : info) acc -> if i.refs = 0 && v <> current then v :: acc else acc)
      vs.versions []
  in
  List.iter (fun v -> destroy_if_dead vs v ~current) dead

let live_versions vs = Hashtbl.length vs.versions

let version_exhaustions t =
  Netcore.Endpoint.Tbl.fold (fun _ vs acc -> acc + Version.exhaustions vs.allocator) t.vips 0

let reuses t = t.reuses

let sram_bits t =
  Netcore.Endpoint.Tbl.fold
    (fun vip vs acc ->
      let vip_bits = Netcore.Endpoint.size_bytes vip * 8 in
      Hashtbl.fold
        (fun _v (i : info) acc ->
          let member_bits =
            Array.fold_left
              (fun b d -> b + (Netcore.Endpoint.size_bytes d * 8))
              0 (Lb.Dip_pool.members i.pool)
          in
          acc + vip_bits + t.version_bits + member_bits)
        vs.versions acc)
    t.vips 0

type info = {
  version : int;
  mutable pool : Lb.Dip_pool.t;
  mutable refs : int;
}

type vip = {
  (* the versions indexed by number, [free] when not allocated: the
     (VIP, version) match of the packet path, without hashing. The reuse
     scans and [gc] walk it in number order, so the lowest-numbered
     candidate wins a reuse and freed numbers return to the allocator in
     ascending order. *)
  slots : info array;
  (* every free slot holds this placeholder: version -1 and an empty
     pool, so a selection through a free slot finds no DIP. Never
     retained or released. *)
  free : info;
  allocator : Version.t;
  (* how many [slots] hold an allocated version *)
  mutable live : int;
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
  vs.slots.(v) <- { version = v; pool; refs = 0 };
  vs.live <- vs.live + 1

(* [f]'s result for the first allocated version, in number order, for
   which it has one *)
let find_version vs f = Array.find_map (fun i -> if i == vs.free then None else f i) vs.slots

let add_vip t vip pool =
  if Netcore.Endpoint.Tbl.mem t.vips vip then Error `Exists
  else begin
    let allocator = Version.create ~bits:t.version_bits in
    let v = match Version.allocate allocator with Ok v -> v | Error `Exhausted -> assert false in
    let free = { version = -1; pool = Lb.Dip_pool.of_list []; refs = 0 } in
    let vs = { slots = Array.make (Version.capacity allocator) free; free; allocator; live = 0 } in
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
  find_version vs (fun i -> if Lb.Dip_pool.equal i.pool target then Some i.version else None)

(* [i]'s pool is the current pool with one member [r] inserted, in
   place: the two member arrays agree up to [r] and again after it *)
let find_reusable vs ~current ~current_pool ~new_dip =
  let cur = Lb.Dip_pool.members current_pool in
  let n = Array.length cur in
  find_version vs (fun i ->
      if i.version = current || Lb.Dip_pool.size i.pool <> n + 1 then None
      else begin
        let m = Lb.Dip_pool.members i.pool in
        let k = ref 0 in
        while !k < n && Netcore.Endpoint.equal m.(!k) cur.(!k) do
          incr k
        done;
        let r = m.(!k) in
        let j = ref (!k + 1) in
        while !j <= n && Netcore.Endpoint.equal m.(!j) cur.(!j - 1) do
          incr j
        done;
        if !j > n && (Netcore.Endpoint.equal r new_dip || not (Lb.Dip_pool.mem i.pool new_dip))
        then Some (i, r)
        else None
      end)

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
         | Some (i, r) ->
           if not (Netcore.Endpoint.equal r d) then
             i.pool <- Lb.Dip_pool.replace i.pool ~old_dip:r ~new_dip:d;
           t.reuses <- t.reuses + 1;
           Ok i.version
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
    vs.slots.(version) <- vs.free;
    vs.live <- vs.live - 1;
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
  for v = 0 to Array.length vs.slots - 1 do
    destroy_if_dead vs v ~current
  done

let live_versions vs = vs.live

let version_exhaustions t =
  Netcore.Endpoint.Tbl.fold (fun _ vs acc -> acc + Version.exhaustions vs.allocator) t.vips 0

let reuses t = t.reuses

let sram_bits t =
  Netcore.Endpoint.Tbl.fold
    (fun vip vs acc ->
      let vip_bits = Netcore.Endpoint.size_bytes vip * 8 in
      Array.fold_left
        (fun acc (i : info) ->
          if i == vs.free then acc
          else
            let member_bits =
              Array.fold_left
                (fun b d -> b + (Netcore.Endpoint.size_bytes d * 8))
                0 (Lb.Dip_pool.members i.pool)
            in
            acc + vip_bits + t.version_bits + member_bits)
        acc vs.slots)
    t.vips 0

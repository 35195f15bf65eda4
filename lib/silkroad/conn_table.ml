module Key = struct
  type t = Netcore.Five_tuple.t

  let equal = Netcore.Five_tuple.equal
  let hash = Netcore.Five_tuple.hash
end

module Table = Asic.Cuckoo.Make (Key)

type lookup_result = {
  version : int;
  exact : bool;
}

type t = {
  table : int Table.t;
  probe : int Table.probe;  (** reusable lookup buffer for {!lookup_code} *)
  digest_bits : int;
  version_bits : int;
  n_stages : int;
  n_rows : int;
  (* per-stage hash seeds and scratch probe positions: [lookup_code]
     computes rows/digests itself with the directly-inlinable
     Five_tuple.hash (the functorised [Key.hash] inside [Table] is an
     opaque call that boxes its int64 per invocation) and hands them
     to [Table.lookup_pos_into]. *)
  row_seeds : int array;
  dig_seeds : int array;
  scratch_rows : int array;
  scratch_digs : int array;
  (* software shadow index: packed (stage, row, digest) -> tracked
     connections whose hardware lookup would match an entry stored
     there. Placement of new entries is vetoed at positions that would
     shadow a tracked connection. *)
  probe_index : (int, Netcore.Five_tuple.t list ref) Hashtbl.t;
  c_false_hits : Telemetry.Registry.Counter.t;
  c_repairs : Telemetry.Registry.Counter.t;
  g_size : Telemetry.Registry.Gauge.t;
  g_occupancy : Telemetry.Registry.Gauge.t;
}

(* ConnTable always runs in digest mode (digest_bits >= 1), so the
   digest is non-negative and the packed key is injective. *)
let pack_pos t ~stage ~row ~digest = (((stage * t.n_rows) + row) lsl t.digest_bits) lor digest

let register t k =
  for stage = 0 to t.n_stages - 1 do
    let row = Table.probe_row t.table k ~stage in
    let digest = Table.probe_digest t.table k ~stage in
    let pos = pack_pos t ~stage ~row ~digest in
    match Hashtbl.find_opt t.probe_index pos with
    | Some l -> l := k :: !l
    | None -> Hashtbl.replace t.probe_index pos (ref [ k ])
  done

let unregister t k =
  for stage = 0 to t.n_stages - 1 do
    let row = Table.probe_row t.table k ~stage in
    let digest = Table.probe_digest t.table k ~stage in
    let pos = pack_pos t ~stage ~row ~digest in
    match Hashtbl.find_opt t.probe_index pos with
    | Some l ->
      l := List.filter (fun k' -> not (Netcore.Five_tuple.equal k' k)) !l;
      if !l = [] then Hashtbl.remove t.probe_index pos
    | None -> ()
  done

(* Would an entry for [k] placed at (stage, row) be falsely matched by a
   tracked connection other than [k] itself? Callers always pass the
   row [k] itself hashes to at [stage]. *)
let placement_safe t k ~stage ~row =
  let digest = Table.probe_digest t.table k ~stage in
  match Hashtbl.find t.probe_index (pack_pos t ~stage ~row ~digest) with
  | l -> not (List.exists (fun k' -> not (Netcore.Five_tuple.equal k' k)) !l)
  | exception Not_found -> true

let create ?metrics (cfg : Config.t) =
  let reg = match metrics with Some r -> r | None -> Telemetry.Registry.create () in
  let table =
    Table.create ~seed:cfg.Config.seed ~digest_bits:cfg.Config.digest_bits
      ~stages:cfg.Config.conn_table_stages ~rows_per_stage:cfg.Config.conn_table_rows
      ~ways:cfg.Config.conn_table_ways ()
  in
  let stages = cfg.Config.conn_table_stages in
  let t =
    {
      table;
      probe = Table.make_probe 0;
      digest_bits = cfg.Config.digest_bits;
      version_bits = cfg.Config.version_bits;
      n_stages = stages;
      n_rows = cfg.Config.conn_table_rows;
      row_seeds = Array.init stages (fun stage -> Table.row_seed table ~stage);
      dig_seeds = Array.init stages (fun stage -> Table.digest_seed table ~stage);
      scratch_rows = Array.make stages 0;
      scratch_digs = Array.make stages 0;
      probe_index = Hashtbl.create 4096;
      c_false_hits = Telemetry.Registry.counter reg "conn_table.false_hits";
      c_repairs = Telemetry.Registry.counter reg "conn_table.repairs";
      g_size = Telemetry.Registry.gauge reg "conn_table.size";
      g_occupancy = Telemetry.Registry.gauge reg "conn_table.occupancy";
    }
  in
  Table.set_placement_filter t.table
    (Some (fun k ~stage ~row -> placement_safe t k ~stage ~row));
  t

let capacity t = Table.capacity t.table
let size t = Table.size t.table
let occupancy t = Table.occupancy t.table

let track_size t =
  Telemetry.Registry.Gauge.set t.g_size (float_of_int (Table.size t.table));
  Telemetry.Registry.Gauge.set t.g_occupancy (Table.occupancy t.table)

let lookup t flow =
  match Table.lookup t.table flow with
  | None -> None
  | Some hit ->
    if not hit.Table.exact then Telemetry.Registry.Counter.incr t.c_false_hits;
    Some { version = hit.Table.value; exact = hit.Table.exact }

(* Allocation-free [lookup]: [-1] on a miss, otherwise
   [(version lsl 1) lor exact_bit]. Versions are small non-negative ints
   (at most [version_bits] wide), so the encoding is lossless. Counts
   false positives exactly like [lookup]. *)
let lookup_code t flow =
  let rows = t.scratch_rows and digs = t.scratch_digs in
  for stage = 0 to t.n_stages - 1 do
    Array.unsafe_set rows stage
      (Netcore.Hashing.to_range
         (Netcore.Five_tuple.hash ~seed:(Array.unsafe_get t.row_seeds stage) flow)
         t.n_rows);
    Array.unsafe_set digs stage
      (Netcore.Hashing.truncate_bits
         (Netcore.Five_tuple.hash ~seed:(Array.unsafe_get t.dig_seeds stage) flow)
         t.digest_bits)
  done;
  Table.lookup_pos_into t.table ~key:flow ~rows ~digests:digs t.probe;
  if not t.probe.Table.probe_hit then -1
  else begin
    if not t.probe.Table.probe_exact then Telemetry.Registry.Counter.incr t.c_false_hits;
    (t.probe.Table.probe_value lsl 1) lor (if t.probe.Table.probe_exact then 1 else 0)
  end

let probe_positions t flow = Table.probe_positions t.table flow
let mem_exact t flow = Table.mem_exact t.table flow

let insert t flow ~version =
  match Table.insert t.table flow version with
  | Ok moves ->
    register t flow;
    track_size t;
    Ok moves
  | (Error (`Full | `Duplicate)) as e -> e

let remove t flow =
  if Table.remove t.table flow then begin
    unregister t flow;
    track_size t;
    true
  end
  else false

(* Separating two digest-colliding connections: neither entry may stay in
   a stage where the other falsely matches it. We move the resident away
   from its current stage, insert the newcomer avoiding that stage too,
   then verify both now hit exactly; on a bad verify we widen the set of
   forbidden stages and retry. *)
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
        (* Move the colliding resident out of the stage where the two
           connections are indistinguishable, then retry. *)
        let forbidden =
          if List.mem hit.Table.stage forbidden then forbidden else hit.Table.stage :: forbidden
        in
        (match Table.relocate t.table hit.Table.key ~forbid_stages:forbidden with
         | Ok _ | Error `Not_found -> attempt forbidden (tries + 1) (hit.Table.key :: residents)
         | Error `Full -> Error `Full)
      | Some _ | None ->
        (* No false hit left for the newcomer; make sure it has its own
           entry (avoiding the collision stages) ... *)
        (match
           if Table.mem_exact t.table flow then Ok 0
           else Table.insert ~forbid_stages:forbidden t.table flow version
         with
         | Error `Full -> Error `Full
         | Error `Duplicate | Ok _ ->
           (* ... and verify that the newcomer and every relocated
              resident now resolve exactly. *)
           if not (exact_hit flow) then begin
             ignore (Table.remove t.table flow);
             attempt forbidden (tries + 1) residents
           end
           else
             let stale = List.filter (fun k -> not (exact_hit k)) residents in
             (match stale with
              | [] ->
                Telemetry.Registry.Counter.incr t.c_repairs;
                track_size t;
                (* the raw table insert above bypassed [insert]: (re)index
                   the newcomer exactly once *)
                unregister t flow;
                register t flow;
                Ok ()
              | k :: _ ->
                (* a resident falsely hits the newcomer's entry: move the
                   newcomer instead *)
                (match Table.lookup t.table k with
                 | Some h ->
                   let forbidden =
                     if List.mem h.Table.stage forbidden then forbidden
                     else h.Table.stage :: forbidden
                   in
                   ignore (Table.remove t.table flow);
                   attempt forbidden (tries + 1) residents
                 | None ->
                   ignore (Table.remove t.table flow);
                   Error `Full)))
  in
  attempt [] 0 []

let false_hits t = Telemetry.Registry.Counter.value t.c_false_hits
let repairs t = Telemetry.Registry.Counter.value t.c_repairs
let moves t = Table.moves t.table
let failed_inserts t = Table.failed_inserts t.table
let greedy_kicks t = Table.greedy_kicks t.table
let bfs_expansions t = Table.bfs_expansions t.table
let first_full_occupancy t = Table.first_full_occupancy t.table

(* digest + version + "a couple bytes of packing overhead" — the paper's
   §6.1 configuration packs 16 + 6 + 6 = 28 bits, four entries per
   112-bit word. *)
let overhead_bits = 6

let entry_bits t = t.digest_bits + t.version_bits + overhead_bits

let sram_bits t = Asic.Sram.bits_for_entries ~entry_bits:(entry_bits t) ~entries:(capacity t)

module Key = struct
  type t = Netcore.Five_tuple.t

  let equal = Netcore.Five_tuple.equal
  let range = Netcore.Five_tuple.range
  let bits = Netcore.Five_tuple.bits
end

module Table = Asic.Cuckoo.Make (Key)

(* The software shadow index: a multimap from a packed (stage, row,
   digest) position to the tracked connections whose hardware lookup
   would match an entry stored there. Open addressing in two flat
   arrays: linear probing from a multiplicative hash of the position,
   deletion by backward shift (no tombstones), and the load kept at
   most 1/2 by doubling. It starts small and grows with what is
   tracked, so creating a large table costs nothing here. *)
module Index = struct
  type t = {
    mutable pos : int array;  (** packed position per slot; -1 = empty *)
    mutable tup : Netcore.Five_tuple.t array;  (** [blank] where empty *)
    mutable shift : int;  (** [Sys.int_size - log2 (slots)] *)
    mutable count : int;
  }

  let initial_log2 = 4

  let blank =
    Netcore.Five_tuple.make ~src:Netcore.Endpoint.none ~dst:Netcore.Endpoint.none
      ~proto:Netcore.Protocol.Tcp

  let create () =
    {
      pos = Array.make (1 lsl initial_log2) (-1);
      tup = Array.make (1 lsl initial_log2) blank;
      shift = Sys.int_size - initial_log2;
      count = 0;
    }

  (* top log2(slots) bits of the position times an odd constant *)
  let home t p = (p * 0x2545F4914F6CDD1D) lsr t.shift

  let place t p k =
    let mask = Array.length t.pos - 1 in
    let i = ref (home t p) in
    while Array.unsafe_get t.pos !i >= 0 do
      i := (!i + 1) land mask
    done;
    t.pos.(!i) <- p;
    t.tup.(!i) <- k

  let add t p k =
    if 2 * (t.count + 1) > Array.length t.pos then begin
      let pos = t.pos and tup = t.tup in
      let n = 2 * Array.length pos in
      t.pos <- Array.make n (-1);
      t.tup <- Array.make n blank;
      t.shift <- t.shift - 1;
      for i = 0 to Array.length pos - 1 do
        if pos.(i) >= 0 then place t pos.(i) tup.(i)
      done
    end;
    place t p k;
    t.count <- t.count + 1

  (* Empty slot [i], then walk the rest of its cluster moving each entry
     whose home is not in the cyclic range (hole, j] back into the hole,
     so every entry stays reachable from its home without tombstones. *)
  let delete_at t i =
    let mask = Array.length t.pos - 1 in
    let hole = ref i and j = ref ((i + 1) land mask) in
    while Array.unsafe_get t.pos !j >= 0 do
      let p = Array.unsafe_get t.pos !j in
      if (!j - home t p) land mask >= (!j - !hole) land mask then begin
        t.pos.(!hole) <- p;
        t.tup.(!hole) <- t.tup.(!j);
        hole := !j
      end;
      j := (!j + 1) land mask
    done;
    t.pos.(!hole) <- -1;
    t.tup.(!hole) <- blank;
    t.count <- t.count - 1

  (* Every copy of [k] at [p]: a deletion may pull a later copy into
     slot [i], so [i] is examined again before moving on. *)
  let remove_all t p k =
    let mask = Array.length t.pos - 1 in
    let i = ref (home t p) in
    while Array.unsafe_get t.pos !i >= 0 do
      if Array.unsafe_get t.pos !i = p && Netcore.Five_tuple.equal (Array.unsafe_get t.tup !i) k
      then delete_at t !i
      else i := (!i + 1) land mask
    done

  (* Is a connection other than [k] indexed at [p]? *)
  let holds_other t p k =
    let mask = Array.length t.pos - 1 in
    let i = ref (home t p) and found = ref false in
    while (not !found) && Array.unsafe_get t.pos !i >= 0 do
      if
        Array.unsafe_get t.pos !i = p
        && not (Netcore.Five_tuple.equal (Array.unsafe_get t.tup !i) k)
      then found := true;
      i := (!i + 1) land mask
    done;
    !found
end

type lookup_result = {
  version : int;
  exact : bool;
}

type t = {
  table : Table.t;
  probe : Table.probe;  (** reusable lookup buffer for {!lookup_code} *)
  digest_bits : int;
  version_bits : int;
  n_stages : int;
  n_rows : int;
  (* per-stage hash seeds, cached so that every probe position here
     (lookup, shadow index, placement veto) is one
     Five_tuple.range/bits call on the tuple's cached hash, with no
     functor call; scratch rows/digests for [Table.lookup_pos_into] *)
  row_seeds : int array;
  dig_seeds : int array;
  scratch_rows : int array;
  scratch_digs : int array;
  (* Placement of new entries is vetoed at positions that would shadow
     a tracked connection. *)
  index : Index.t;
  c_false_hits : Telemetry.Registry.Counter.t;
  c_repairs : Telemetry.Registry.Counter.t;
  g_size : Telemetry.Registry.Gauge.t;
  g_occupancy : Telemetry.Registry.Gauge.t;
}

let row_at t k stage = Netcore.Five_tuple.range ~seed:(Array.unsafe_get t.row_seeds stage) k t.n_rows

let digest_at t k stage =
  Netcore.Five_tuple.bits ~seed:(Array.unsafe_get t.dig_seeds stage) k t.digest_bits

(* ConnTable always runs in digest mode (digest_bits >= 1), so the
   digest is non-negative and the packed key is injective. *)
let pack_pos t ~stage ~row ~digest = (((stage * t.n_rows) + row) lsl t.digest_bits) lor digest

let register t k =
  for stage = 0 to t.n_stages - 1 do
    Index.add t.index (pack_pos t ~stage ~row:(row_at t k stage) ~digest:(digest_at t k stage)) k
  done

let unregister t k =
  for stage = 0 to t.n_stages - 1 do
    Index.remove_all t.index
      (pack_pos t ~stage ~row:(row_at t k stage) ~digest:(digest_at t k stage))
      k
  done

(* Would an entry for [k] placed at (stage, row) be falsely matched by a
   tracked connection other than [k] itself? Callers always pass the
   row [k] itself hashes to at [stage]. *)
let placement_safe t k ~stage ~row =
  not (Index.holds_other t.index (pack_pos t ~stage ~row ~digest:(digest_at t k stage)) k)

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
      probe = Table.make_probe ();
      digest_bits = cfg.Config.digest_bits;
      version_bits = cfg.Config.version_bits;
      n_stages = stages;
      n_rows = cfg.Config.conn_table_rows;
      row_seeds = Array.init stages (fun stage -> Table.row_seed table ~stage);
      dig_seeds = Array.init stages (fun stage -> Table.digest_seed table ~stage);
      scratch_rows = Array.make stages 0;
      scratch_digs = Array.make stages 0;
      index = Index.create ();
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
  Telemetry.Registry.Gauge.set_int t.g_size (Table.size t.table);
  Telemetry.Registry.Gauge.set t.g_occupancy (Table.occupancy t.table)

(* The hardware lookup, allocation-free: [-1] on a miss, otherwise
   [(version lsl 1) lor exact_bit], the version read from the word the
   lookup matched. Versions are small non-negative ints (at most
   [version_bits] <= 16 wide), so they fit the table's value range and
   the encoding is lossless. *)
let lookup_code t flow =
  let rows = t.scratch_rows and digs = t.scratch_digs in
  for stage = 0 to t.n_stages - 1 do
    Array.unsafe_set rows stage (row_at t flow stage);
    Array.unsafe_set digs stage (digest_at t flow stage)
  done;
  Table.lookup_pos_into t.table ~key:flow ~rows ~digests:digs t.probe;
  if not t.probe.Table.probe_hit then -1
  else begin
    if not t.probe.Table.probe_exact then Telemetry.Registry.Counter.incr t.c_false_hits;
    (t.probe.Table.probe_value lsl 1) lor (if t.probe.Table.probe_exact then 1 else 0)
  end

let lookup t flow =
  let c = lookup_code t flow in
  if c < 0 then None else Some { version = c lsr 1; exact = c land 1 = 1 }

let probe_positions t flow = Table.probe_positions t.table flow
let mem_exact t flow = Table.mem_exact t.table flow
let stage_of t flow = Table.stage_of_exact t.table flow

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

(* digest + version + "a couple bytes of packing overhead" — the paper's
   §6.1 configuration packs 16 + 6 + 6 = 28 bits, four entries per
   112-bit word. *)
let overhead_bits = 6

let entry_bits t = t.digest_bits + t.version_bits + overhead_bits

let sram_bits t = Asic.Sram.bits_for_entries ~entry_bits:(entry_bits t) ~entries:(capacity t)

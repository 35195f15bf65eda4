(* The original per-slot boxed-record cuckoo layout, kept as the
   differential-testing reference for the flat SoA layout in
   Asic.Cuckoo, trimmed to the operations the differentials drive. Its
   insert path is the plain BFS (no greedy kick pass): the test suite
   relies on the flat layout's greedy pass selecting exactly the same
   victim as this BFS's first depth-1 solution, so both layouts make
   identical placements for identical operation sequences. Its seed
   and BFS budget are the flat layout's defaults. *)

module Make (Key : Asic.Cuckoo.KEY) = struct
  type 'v hit = {
    stage : int;
    exact : bool;
    value : 'v;
  }

  type 'v entry = {
    key : Key.t;
    mutable stored_digest : int;  (** digest under the entry's current stage *)
    value : 'v;
  }

  type 'v t = {
    digest_bits : int;
    n_stages : int;
    n_rows : int;
    n_ways : int;
    (* slots.(stage) is a flat array of rows*ways slots *)
    slots : 'v entry option array array;
    mutable size : int;
    mutable moves : int;
    mutable failed_inserts : int;
    mutable placement_filter : (Key.t -> stage:int -> row:int -> bool) option;
  }

  let seed = 0xc0c0
  let max_bfs_nodes = 4096

  let create ~digest_bits ~stages ~rows_per_stage ~ways () =
    {
      digest_bits;
      n_stages = stages;
      n_rows = rows_per_stage;
      n_ways = ways;
      slots = Array.init stages (fun _ -> Array.make (rows_per_stage * ways) None);
      size = 0;
      moves = 0;
      failed_inserts = 0;
      placement_filter = None;
    }

  let size t = t.size

  (* Per-stage hash functions: one for the row index, one for the digest.
     Seeds are decorrelated by distinct multipliers. *)
  let row_of t stage k = Key.range ~seed:(seed + (stage * 2) + 1) k t.n_rows

  let digest_of t stage k = Key.bits ~seed:(seed + 0x5eed + (stage * 2)) k t.digest_bits

  let slot_index t row way = (row * t.n_ways) + way

  let matches t stage k (slot : _ entry option) =
    match slot with
    | None -> false
    | Some e -> e.stored_digest = digest_of t stage k

  let lookup t k =
    let rec by_stage stage =
      if stage >= t.n_stages then None
      else
        let row = row_of t stage k in
        let rec by_way way =
          if way >= t.n_ways then by_stage (stage + 1)
          else
            let slot = t.slots.(stage).(slot_index t row way) in
            if matches t stage k slot then
              match (slot : _ entry option) with
              | Some e -> Some { stage; exact = Key.equal e.key k; value = e.value }
              | None -> assert false
            else by_way (way + 1)
        in
        by_way 0
    in
    by_stage 0

  (* Software-side scan by true key: the entry for [k] can only sit in one
     of its candidate rows. *)
  let locate_exact t k =
    let rec by_stage stage =
      if stage >= t.n_stages then None
      else
        let row = row_of t stage k in
        let rec by_way way =
          if way >= t.n_ways then by_stage (stage + 1)
          else
            match t.slots.(stage).(slot_index t row way) with
            | Some e when Key.equal e.key k -> Some (stage, row, way, e)
            | Some _ | None -> by_way (way + 1)
        in
        by_way 0
    in
    by_stage 0

  let find_exact t k =
    match locate_exact t k with
    | Some (_, _, _, e) -> Some e.value
    | None -> None

  let stage_of_exact t k =
    match locate_exact t k with
    | Some (stage, _, _, _) -> Some stage
    | None -> None

  let placement_allowed t key stage row =
    match t.placement_filter with
    | None -> true
    | Some f -> f key ~stage ~row

  let free_way t stage row =
    let rec go way =
      if way >= t.n_ways then None
      else if t.slots.(stage).(slot_index t row way) = None then Some way
      else go (way + 1)
    in
    go 0

  let place t stage row way entry =
    entry.stored_digest <- digest_of t stage entry.key;
    t.slots.(stage).(slot_index t row way) <- Some entry

  (* BFS node: a slot whose occupant we may evict, with a link to the slot
     whose occupant wants to move into it. *)
  type bfs_node = {
    ns : int;  (** stage *)
    nr : int;  (** row *)
    nw : int;  (** way *)
    parent : bfs_node option;
  }

  exception Found_free of int * int * int * bfs_node option
  (* free (stage, row, way) and the node whose occupant moves into it *)

  let insert_entry t ~allowed_root_stage entry =
    let k = entry.key in
    (* Fast path: a free slot in one of the candidate rows. *)
    let rec direct stage =
      if stage >= t.n_stages then None
      else if not (allowed_root_stage stage) then direct (stage + 1)
      else
        let row = row_of t stage k in
        if not (placement_allowed t k stage row) then direct (stage + 1)
        else
          match free_way t stage row with
          | Some way -> Some (stage, row, way)
          | None -> direct (stage + 1)
    in
    match direct 0 with
    | Some (stage, row, way) ->
      place t stage row way entry;
      t.size <- t.size + 1;
      Ok 0
    | None ->
      (* BFS over eviction chains. *)
      let queue = Queue.create () in
      let visited = Hashtbl.create 64 in
      let visit_row stage row = Hashtbl.replace visited (stage, row) () in
      let row_visited stage row = Hashtbl.mem visited (stage, row) in
      for stage = 0 to t.n_stages - 1 do
        if allowed_root_stage stage && placement_allowed t k stage (row_of t stage k) then begin
          let row = row_of t stage k in
          if not (row_visited stage row) then begin
            visit_row stage row;
            for way = 0 to t.n_ways - 1 do
              Queue.add { ns = stage; nr = row; nw = way; parent = None } queue
            done
          end
        end
      done;
      let expanded = ref 0 in
      try
        while not (Queue.is_empty queue) && !expanded < max_bfs_nodes do
          let node = Queue.pop queue in
          incr expanded;
          let occupant =
            match t.slots.(node.ns).(slot_index t node.nr node.nw) with
            | Some e -> e
            | None ->
              (* The slot freed up since enqueue cannot happen (no moves
                 during BFS) — root candidates were full by construction. *)
              assert false
          in
          (* The occupant may move to its candidate row in any other stage. *)
          for stage = 0 to t.n_stages - 1 do
            if
              stage <> node.ns
              && placement_allowed t occupant.key stage (row_of t stage occupant.key)
            then begin
              let row = row_of t stage occupant.key in
              match free_way t stage row with
              | Some way -> raise (Found_free (stage, row, way, Some node))
              | None ->
                if not (row_visited stage row) then begin
                  visit_row stage row;
                  for way = 0 to t.n_ways - 1 do
                    Queue.add { ns = stage; nr = row; nw = way; parent = Some node } queue
                  done
                end
            end
          done
        done;
        t.failed_inserts <- t.failed_inserts + 1;
        Error `Full
      with Found_free (fs, fr, fw, last) ->
        (* Unwind the eviction chain leaf-to-root: each occupant moves into
           the slot freed by its successor. *)
        let rec unwind (free_s, free_r, free_w) node moves =
          match node with
          | None ->
            (* The root slot is now free: it is a candidate row of [k]. *)
            place t free_s free_r free_w entry;
            moves
          | Some n ->
            let e =
              match t.slots.(n.ns).(slot_index t n.nr n.nw) with
              | Some e -> e
              | None -> assert false
            in
            place t free_s free_r free_w e;
            t.slots.(n.ns).(slot_index t n.nr n.nw) <- None;
            unwind (n.ns, n.nr, n.nw) n.parent (moves + 1)
        in
        let moves = unwind (fs, fr, fw) last 0 in
        t.moves <- t.moves + moves;
        t.size <- t.size + 1;
        Ok moves

  let insert ?(forbid_stages = []) t k v =
    if locate_exact t k <> None then Error `Duplicate
    else
      let allowed stage = not (List.mem stage forbid_stages) in
      let entry = { key = k; stored_digest = -1; value = v } in
      insert_entry t ~allowed_root_stage:allowed entry

  let remove t k =
    match locate_exact t k with
    | Some (stage, row, way, _) ->
      t.slots.(stage).(slot_index t row way) <- None;
      t.size <- t.size - 1;
      true
    | None -> false

  let relocate t k ~forbid_stages =
    match locate_exact t k with
    | None -> Error `Not_found
    | Some (stage, row, way, e) ->
      if List.mem stage forbid_stages then begin
        t.slots.(stage).(slot_index t row way) <- None;
        t.size <- t.size - 1;
        let allowed s = not (List.mem s forbid_stages) in
        match insert_entry t ~allowed_root_stage:allowed e with
        | Ok moves -> Ok (moves + 1)
        | Error `Full ->
          (* Roll back so the table is unchanged on failure. *)
          t.slots.(stage).(slot_index t row way) <- Some e;
          t.size <- t.size + 1;
          Error `Full
      end
      else Ok 0

  let moves t = t.moves
  let failed_inserts t = t.failed_inserts
  let set_placement_filter t f = t.placement_filter <- f
end

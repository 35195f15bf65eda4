(* Flat structure-of-arrays cuckoo layout.

   One int array holds the per-slot stored digest (-1 = empty; the
   occupied marker 0 in exact mode), and two lazily-created parallel
   arrays hold the true keys and values, indexed by
   ((stage * rows + row) * ways + way). Lookups touch only the digest
   array until a match is found — cache-line friendly and free of the
   per-slot option/record boxes of the original layout (Cuckoo_boxed).

   The insert path escalates through three regimes (§4.1's switch-CPU
   insert at its real costs):
   - direct: a free way in a candidate row;
   - greedy kick: a bounded scan of the depth-1 eviction frontier —
     move one resident to its free alternative slot. The scan order
     (root stages ascending, ways ascending, victim's alternative
     stages ascending) is exactly the order the reference BFS would
     pop, so the greedy pass picks the same victim the BFS's first
     depth-1 solution would, keeping both layouts' placements
     identical;
   - BFS over eviction chains, run in a pre-allocated scratch arena
     (int queues + generation-stamped visited array) so a saturated
     table no longer allocates a queue, hashtable and chain nodes per
     insert.

   The differential suite in test_asic pins this module's
   placements, sizes, moves and lookups byte-identical to Cuckoo_boxed
   for identical operation sequences. *)

module type KEY = Cuckoo_intf.KEY

module Make (Key : KEY) = struct
  type key = Key.t

  type 'v hit = {
    stage : int;
    exact : bool;
    key : Key.t;
    value : 'v;
  }

  (* Keys/values can only be allocated once a first key and value are
     available, so they live behind an option set on first insert. The
     dummies blank freed slots, keeping removed entries collectable. *)
  type ('k, 'v) cells = {
    ckeys : 'k array;
    cvals : 'v array;
    cdk : 'k;
    cdv : 'v;
  }

  type 'v t = {
    seed : int;
    digest_bits : int option;
    exact_mode : bool;
    max_bfs_nodes : int;
    max_kicks : int;
    n_stages : int;
    n_rows : int;
    n_ways : int;
    codes : int array;  (** per-slot stored digest; -1 = empty (0 marks occupied in exact mode) *)
    mutable cells : (Key.t, 'v) cells option;
    (* BFS scratch arena, reused across inserts *)
    q_slot : int array;
    q_parent : int array;
    visited : int array;  (** (stage * n_rows + row) -> generation stamp *)
    mutable bfs_gen : int;
    mutable size : int;
    mutable moves : int;
    mutable failed_inserts : int;
    mutable greedy_kicks : int;
    mutable bfs_expansions : int;
    mutable last_bfs_expanded : int;
    mutable first_full_occupancy : float option;
    mutable placement_filter : (Key.t -> stage:int -> row:int -> bool) option;
  }

  let create ?(seed = 0xc0c0) ?digest_bits ?(max_bfs_nodes = 4096) ?max_kicks ~stages
      ~rows_per_stage ~ways () =
    assert (stages >= 2);
    assert (rows_per_stage > 0);
    assert (ways >= 1);
    (match digest_bits with
     | None -> ()
     | Some b -> assert (b >= 1 && b <= 30));
    let max_kicks = match max_kicks with Some k -> k | None -> stages * ways in
    let total = stages * rows_per_stage * ways in
    (* Each BFS enqueues at most [ways] nodes per newly visited row:
       bounded both by the root frontier plus (stages-1)*ways per
       expansion, and by every row being visited at most once. *)
    let arena_cap =
      Int.min total ((stages * ways) + (max_bfs_nodes * (stages - 1) * ways))
    in
    {
      seed;
      digest_bits;
      exact_mode = digest_bits = None;
      max_bfs_nodes;
      max_kicks;
      n_stages = stages;
      n_rows = rows_per_stage;
      n_ways = ways;
      codes = Array.make total (-1);
      cells = None;
      q_slot = Array.make arena_cap 0;
      q_parent = Array.make arena_cap (-1);
      visited = Array.make (stages * rows_per_stage) 0;
      bfs_gen = 0;
      size = 0;
      moves = 0;
      failed_inserts = 0;
      greedy_kicks = 0;
      bfs_expansions = 0;
      last_bfs_expanded = 0;
      first_full_occupancy = None;
      placement_filter = None;
    }

  let stages t = t.n_stages
  let rows_per_stage t = t.n_rows
  let ways t = t.n_ways
  let digest_bits t = t.digest_bits
  let capacity t = t.n_stages * t.n_rows * t.n_ways
  let size t = t.size
  let occupancy t = float_of_int t.size /. float_of_int (capacity t)
  let max_bfs_nodes t = t.max_bfs_nodes

  (* Per-stage hash functions: one for the row index, one for the digest.
     Seeds are decorrelated by distinct multipliers. *)
  let row_seed t ~stage = t.seed + (stage * 2) + 1
  let digest_seed t ~stage = t.seed + 0x5eed + (stage * 2)
  let row_of t stage k = Key.range ~seed:(row_seed t ~stage) k t.n_rows

  let digest_of t stage k =
    match t.digest_bits with
    | None -> -1
    | Some bits -> Key.bits ~seed:(digest_seed t ~stage) k bits

  (* The stored per-slot code: the digest, or 0 as the exact-mode
     occupied marker (empty slots store -1 in either mode). *)
  let code_of t stage k =
    match t.digest_bits with
    | None -> 0
    | Some bits -> Key.bits ~seed:(digest_seed t ~stage) k bits

  let probe_row t k ~stage = row_of t stage k
  let probe_digest t k ~stage = digest_of t stage k
  let[@inline] base t stage row = ((stage * t.n_rows) + row) * t.n_ways
  let[@inline] stage_of_idx t idx = idx / (t.n_rows * t.n_ways)

  let ensure_cells t k v =
    match t.cells with
    | Some c -> c
    | None ->
      let total = capacity t in
      let c = { ckeys = Array.make total k; cvals = Array.make total v; cdk = k; cdv = v } in
      t.cells <- Some c;
      c

  let cells_exn t =
    match t.cells with
    | Some c -> c
    | None -> assert false

  type 'v probe = {
    mutable probe_hit : bool;
    mutable probe_exact : bool;
    mutable probe_stage : int;
    mutable probe_value : 'v;
  }

  let make_probe v = { probe_hit = false; probe_exact = false; probe_stage = 0; probe_value = v }

  (* [lookup] without the hit record, with the per-stage probe
     rows/digests precomputed by the caller: results land in a
     caller-owned probe buffer, so the hardware fast path allocates
     nothing. The caller derives each stage's row and digest once (via
     [row_seed]/[digest_seed] and the key's own [range]/[bits]) rather
     than through a functor call per stage. Plain loops over local refs,
     not local recursive functions: those closures would be allocated
     on every call. *)
  let lookup_pos_into t ~key:k ~(rows : int array) ~(digests : int array) (p : 'v probe) =
    p.probe_hit <- false;
    match t.cells with
    | None -> ()
    | Some c ->
      let stage = ref 0 in
      while !stage < t.n_stages do
        let b = base t !stage (Array.unsafe_get rows !stage) in
        let code = Array.unsafe_get digests !stage in
        let way = ref 0 in
        while !way < t.n_ways do
          let i = b + !way in
          let stored = Array.unsafe_get t.codes i in
          if
            if t.exact_mode then stored >= 0 && Key.equal (Array.unsafe_get c.ckeys i) k
            else stored = code
          then begin
            p.probe_hit <- true;
            p.probe_exact <- Key.equal (Array.unsafe_get c.ckeys i) k;
            p.probe_stage <- !stage;
            p.probe_value <- Array.unsafe_get c.cvals i;
            way := t.n_ways;
            stage := t.n_stages
          end
          else incr way
        done;
        incr stage
      done

  let lookup t k =
    match t.cells with
    | None -> None
    | Some c ->
      let rec by_stage stage =
        if stage >= t.n_stages then None
        else
          let b = base t stage (row_of t stage k) in
          let code = code_of t stage k in
          let rec by_way way =
            if way >= t.n_ways then by_stage (stage + 1)
            else
              let i = b + way in
              let stored = t.codes.(i) in
              if
                if t.exact_mode then stored >= 0 && Key.equal c.ckeys.(i) k else stored = code
              then
                Some
                  ({
                     stage;
                     exact = Key.equal c.ckeys.(i) k;
                     key = c.ckeys.(i);
                     value = c.cvals.(i);
                   }
                    : _ hit)
              else by_way (way + 1)
          in
          by_way 0
      in
      by_stage 0

  (* Software-side scan by true key: the entry for [k] can only sit in one
     of its candidate rows. Returns the slot index, or -1. Every insert
     and removal starts here, so it is a closure-free loop like
     [lookup_pos_into]. Digest first: [place] always stores
     [code_of t stage k], so a way whose code differs cannot hold [k],
     and only the ways that match it dereference their stored key. *)
  let locate_exact_idx t k =
    match t.cells with
    | None -> -1
    | Some c ->
      let found = ref (-1) and stage = ref 0 in
      while !found < 0 && !stage < t.n_stages do
        let b = base t !stage (row_of t !stage k) in
        let code = code_of t !stage k in
        let way = ref 0 in
        while !found < 0 && !way < t.n_ways do
          let i = b + !way in
          if t.codes.(i) = code && Key.equal c.ckeys.(i) k then found := i;
          incr way
        done;
        incr stage
      done;
      !found

  let find_exact t k =
    let idx = locate_exact_idx t k in
    if idx < 0 then None else Some (cells_exn t).cvals.(idx)

  let mem_exact t k = locate_exact_idx t k >= 0

  let stage_of_exact t k =
    let idx = locate_exact_idx t k in
    if idx < 0 then None else Some (stage_of_idx t idx)

  let placement_allowed t key stage row =
    match t.placement_filter with
    | None -> true
    | Some f -> f key ~stage ~row

  (* Root stages an insert may use: any not in [forbid]. *)
  let allowed_root forbid stage = not (List.mem stage forbid)

  (* First free way of the row, or -1. *)
  let free_way_i t stage row =
    let b = base t stage row in
    let free = ref (-1) and way = ref 0 in
    while !free < 0 && !way < t.n_ways do
      if t.codes.(b + !way) < 0 then free := !way;
      incr way
    done;
    !free

  let place t c idx stage k v =
    t.codes.(idx) <- code_of t stage k;
    c.ckeys.(idx) <- k;
    c.cvals.(idx) <- v

  let clear_slot t c idx =
    t.codes.(idx) <- -1;
    c.ckeys.(idx) <- c.cdk;
    c.cvals.(idx) <- c.cdv

  (* Greedy depth-1 kick: scan the eviction frontier in exactly the
     order the BFS would pop it (root stages ascending, ways ascending,
     the victim's alternative stages ascending) and move the first
     resident that has a free alternative slot. Bounded by [max_kicks]
     examined victims; on budget exhaustion the BFS below re-derives the
     same (or a deeper) solution, so the bound never changes placement
     outcomes — only how cheaply they are found. *)
  exception Kick of int * int
  (* victim slot index, destination free slot index *)

  let greedy_pass t (c : _ cells) ~forbid k =
    let examined = ref 0 in
    try
      let stage = ref 0 in
      while !stage < t.n_stages do
        let s = !stage in
        if allowed_root forbid s then begin
          let row = row_of t s k in
          if placement_allowed t k s row then begin
            let b = base t s row in
            for way = 0 to t.n_ways - 1 do
              if !examined < t.max_kicks then begin
                incr examined;
                let vk = c.ckeys.(b + way) in
                for s2 = 0 to t.n_stages - 1 do
                  if s2 <> s then begin
                    let row2 = row_of t s2 vk in
                    if placement_allowed t vk s2 row2 then begin
                      let w2 = free_way_i t s2 row2 in
                      if w2 >= 0 then raise (Kick (b + way, base t s2 row2 + w2))
                    end
                  end
                done
              end
            done
          end
        end;
        incr stage
      done;
      (-1, -1)
    with Kick (v, d) -> (v, d)

  exception Found_free of int * int
  (* free slot index and the arena node whose occupant moves into it *)

  (* BFS over eviction chains, in the pre-allocated scratch arena:
     [q_slot]/[q_parent] are the queue and the eviction tree (parent -1 =
     a root, i.e. a candidate slot of [k] itself); [visited] uses
     generation stamps so no per-insert clearing is needed. Traversal
     order is identical to the reference implementation's queue-and-
     hashtable BFS. *)
  let bfs_insert t (c : _ cells) ~forbid k v =
    t.bfs_gen <- t.bfs_gen + 1;
    let gen = t.bfs_gen in
    let head = ref 0 and tail = ref 0 in
    let enqueue slot parent =
      t.q_slot.(!tail) <- slot;
      t.q_parent.(!tail) <- parent;
      incr tail
    in
    for stage = 0 to t.n_stages - 1 do
      let row = row_of t stage k in
      if allowed_root forbid stage && placement_allowed t k stage row then begin
        let vi = (stage * t.n_rows) + row in
        if t.visited.(vi) <> gen then begin
          t.visited.(vi) <- gen;
          for way = 0 to t.n_ways - 1 do
            enqueue (base t stage row + way) (-1)
          done
        end
      end
    done;
    let expanded = ref 0 in
    let result =
      try
        while !head < !tail && !expanded < t.max_bfs_nodes do
          let node = !head in
          incr head;
          incr expanded;
          let vidx = t.q_slot.(node) in
          (* Roots were full by construction and no moves happen during
             the search, so every queued slot is still occupied. *)
          assert (t.codes.(vidx) >= 0);
          let vk = c.ckeys.(vidx) in
          let ns = stage_of_idx t vidx in
          (* The occupant may move to its candidate row in any other stage. *)
          for stage = 0 to t.n_stages - 1 do
            if stage <> ns then begin
              let row = row_of t stage vk in
              if placement_allowed t vk stage row then begin
                let w = free_way_i t stage row in
                if w >= 0 then raise (Found_free (base t stage row + w, node))
                else begin
                  let vi = (stage * t.n_rows) + row in
                  if t.visited.(vi) <> gen then begin
                    t.visited.(vi) <- gen;
                    for way = 0 to t.n_ways - 1 do
                      enqueue (base t stage row + way) node
                    done
                  end
                end
              end
            end
          done
        done;
        t.failed_inserts <- t.failed_inserts + 1;
        if t.first_full_occupancy = None then t.first_full_occupancy <- Some (occupancy t);
        Error `Full
      with Found_free (free_idx, last) ->
        (* Unwind the eviction chain leaf-to-root: each occupant moves
           into the slot freed by its successor; the root slot freed last
           is a candidate slot of [k]. *)
        let rec unwind free_idx node moves =
          if node < 0 then begin
            place t c free_idx (stage_of_idx t free_idx) k v;
            moves
          end
          else begin
            let vidx = t.q_slot.(node) in
            let mk = c.ckeys.(vidx) and mv = c.cvals.(vidx) in
            place t c free_idx (stage_of_idx t free_idx) mk mv;
            clear_slot t c vidx;
            unwind vidx t.q_parent.(node) (moves + 1)
          end
        in
        let moves = unwind free_idx last 0 in
        t.moves <- t.moves + moves;
        t.size <- t.size + 1;
        Ok moves
    in
    t.bfs_expansions <- t.bfs_expansions + !expanded;
    t.last_bfs_expanded <- !expanded;
    result

  let insert_kv t ~forbid k v =
    let c = ensure_cells t k v in
    (* Direct: a free slot in one of the candidate rows. *)
    let idx = ref (-1) and stage = ref 0 in
    while !idx < 0 && !stage < t.n_stages do
      let s = !stage in
      if allowed_root forbid s then begin
        let row = row_of t s k in
        if placement_allowed t k s row then begin
          let w = free_way_i t s row in
          if w >= 0 then idx := base t s row + w
        end
      end;
      incr stage
    done;
    let idx = !idx in
    if idx >= 0 then begin
      place t c idx (stage_of_idx t idx) k v;
      t.size <- t.size + 1;
      Ok 0
    end
    else
      let vidx, dest = greedy_pass t c ~forbid k in
      if vidx >= 0 then begin
        let mk = c.ckeys.(vidx) and mv = c.cvals.(vidx) in
        place t c dest (stage_of_idx t dest) mk mv;
        place t c vidx (stage_of_idx t vidx) k v;
        t.moves <- t.moves + 1;
        t.greedy_kicks <- t.greedy_kicks + 1;
        t.size <- t.size + 1;
        Ok 1
      end
      else bfs_insert t c ~forbid k v

  let insert ?(forbid_stages = []) t k v =
    if mem_exact t k then Error `Duplicate
    else insert_kv t ~forbid:forbid_stages k v

  let remove t k =
    let idx = locate_exact_idx t k in
    if idx < 0 then false
    else begin
      clear_slot t (cells_exn t) idx;
      t.size <- t.size - 1;
      true
    end

  let set_exact t k v =
    let idx = locate_exact_idx t k in
    if idx < 0 then false
    else begin
      (cells_exn t).cvals.(idx) <- v;
      true
    end

  let relocate t k ~forbid_stages =
    let idx = locate_exact_idx t k in
    if idx < 0 then Error `Not_found
    else
      let stage = stage_of_idx t idx in
      if List.mem stage forbid_stages then begin
        let c = cells_exn t in
        let v = c.cvals.(idx) in
        let code = t.codes.(idx) in
        clear_slot t c idx;
        t.size <- t.size - 1;
        match insert_kv t ~forbid:forbid_stages k v with
        | Ok moves -> Ok (moves + 1)
        | Error `Full ->
          (* Roll back so the table is unchanged on failure. *)
          t.codes.(idx) <- code;
          c.ckeys.(idx) <- k;
          c.cvals.(idx) <- v;
          t.size <- t.size + 1;
          Error `Full
      end
      else Ok 0

  let iter f t =
    match t.cells with
    | None -> ()
    | Some c ->
      for i = 0 to Array.length t.codes - 1 do
        if t.codes.(i) >= 0 then f c.ckeys.(i) c.cvals.(i)
      done

  let fold f t init =
    let acc = ref init in
    iter (fun k v -> acc := f k v !acc) t;
    !acc

  let moves t = t.moves
  let failed_inserts t = t.failed_inserts
  let greedy_kicks t = t.greedy_kicks
  let bfs_expansions t = t.bfs_expansions
  let last_bfs_expanded t = t.last_bfs_expanded
  let first_full_occupancy t = t.first_full_occupancy

  let probe_positions t k =
    List.init t.n_stages (fun stage -> (stage, row_of t stage k, digest_of t stage k))

  let set_placement_filter t f = t.placement_filter <- f
end

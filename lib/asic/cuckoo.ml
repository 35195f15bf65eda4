(* Flat cuckoo layout: one int array per stage, two ints per slot.

   Slot [row * ways + way] of a stage is the pair at [2i], [2i + 1] of
   the stage's array: its word, the stored digest in the low 31 bits (0 as
   the occupied marker in exact mode) and the value in the bits above,
   or -1 for an empty slot; and the handle of the entry's owner, an int
   the table's [key_of] resolves to the true key. Lookups touch only
   the words until one matches; a hit then finds its value and its
   handle in the same cache line, and reads the true key through the
   handle once. The table holds no pointer, so a store into it is a
   plain write, and it is free of the per-slot option/record boxes of
   the original layout, which the test suite keeps as its reference.
   The first insert allocates the arrays, so a table that never holds
   an entry costs nothing. One array per stage, as the hardware has one
   SRAM table per stage, also keeps each allocation at half of a
   two-stage table: glibc raises its mmap threshold to the largest
   block a program frees, and one 16 MB block instead of two 8 MB ones
   raised perfbench serve-churn's peak RSS by 8 MB.

   The insert path escalates through three regimes (§4.1's switch-CPU
   insert at its real costs):
   - direct: a free way in a candidate row;
   - greedy kick: a scan of the depth-1 eviction frontier — move one
     resident to its free alternative slot. The scan order
     (root stages ascending, ways ascending, victim's alternative
     stages ascending) is exactly the order the reference BFS would
     pop, so the greedy pass picks the same victim the BFS's first
     depth-1 solution would, keeping both layouts' placements
     identical;
   - BFS over eviction chains, run in a scratch arena (int queues +
     generation-stamped visited array) allocated by the first insert
     that reaches the BFS and reused after, so a saturated table no
     longer allocates a queue, hashtable and chain nodes per insert,
     and a table that never needs the BFS never pays for the arena.

   The differential suite in test_asic pins this module's
   placements, sizes, moves and lookups byte-identical to the boxed
   reference for identical operation sequences. *)

module type KEY = sig
  type t

  val equal : t -> t -> bool
  val range : seed:int -> t -> int -> int
  val bits : seed:int -> t -> int -> int
end

(* A slot's word: [(value lsl value_shift) lor code], or -1 when empty.
   Codes are at most 30 bits wide, so an empty word's low bits
   ([digest_mask]) never equal a stored code. These live outside the
   functor: a functor-level [value_of] is a free variable of the BFS's
   unwind closure, one more word allocated per BFS insert. *)
let value_shift = 31
let digest_mask = (1 lsl value_shift) - 1
let max_value = digest_mask
let[@inline] value_of word = word lsr value_shift

(* Slot indices carry their stage above this many bits (see [base]). *)
let offset_bits = 32
let offset_mask = (1 lsl offset_bits) - 1

(* Expansions one eviction-chain BFS may make before the insert reports
   the table full. *)
let max_bfs_nodes = 4096

module Make (Key : KEY) = struct
  type key = Key.t

  type hit = {
    stage : int;
    exact : bool;
    handle : int;
    value : int;
  }

  type t = {
    seed : int;
    digest_bits : int option;
    exact_mode : bool;
    n_stages : int;
    n_rows : int;
    n_ways : int;
    key_of : int -> Key.t;
    mutable slots : int array array;
        (** per stage, per slot: its word (-1 = empty), then its handle;
            empty until the first insert *)
    (* [lookup]'s probe positions, rewritten on every call *)
    look_rows : int array;
    look_digests : int array;
    (* BFS scratch arena: empty until the first BFS, reused after *)
    mutable q_slot : int array;
    mutable q_parent : int array;
    mutable visited : int array;  (** (stage * n_rows + row) -> generation stamp *)
    mutable bfs_gen : int;
    mutable size : int;
    mutable moves : int;
    mutable failed_inserts : int;
    mutable greedy_kicks : int;
    mutable bfs_expansions : int;
    mutable placement_filter : (int -> stage:int -> row:int -> bool) option;
  }

  let create ?(seed = 0xc0c0) ?digest_bits ~key_of ~stages ~rows_per_stage ~ways () =
    assert (stages >= 2);
    assert (rows_per_stage > 0);
    assert (ways >= 1);
    (match digest_bits with
     | None -> ()
     | Some b -> assert (b >= 1 && b <= 30));
    {
      seed;
      digest_bits;
      exact_mode = digest_bits = None;
      n_stages = stages;
      n_rows = rows_per_stage;
      n_ways = ways;
      key_of;
      slots = [||];
      look_rows = Array.make stages 0;
      look_digests = Array.make stages 0;
      q_slot = [||];
      q_parent = [||];
      visited = [||];
      bfs_gen = 0;
      size = 0;
      moves = 0;
      failed_inserts = 0;
      greedy_kicks = 0;
      bfs_expansions = 0;
      placement_filter = None;
    }

  let stages t = t.n_stages
  let capacity t = t.n_stages * t.n_rows * t.n_ways
  let size t = t.size
  let occupancy t = float_of_int t.size /. float_of_int (capacity t)

  (* Per-stage hash functions: one for the row index, one for the digest.
     Seeds are decorrelated by distinct multipliers. *)
  let row_seed t ~stage = t.seed + (stage * 2) + 1
  let digest_seed t ~stage = t.seed + 0x5eed + (stage * 2)
  let row_of t stage k = Key.range ~seed:(row_seed t ~stage) k t.n_rows

  (* The stored per-slot code: the digest, or 0 as the exact-mode
     occupied marker (empty slots store -1 in either mode). *)
  let code_of t stage k =
    match t.digest_bits with
    | None -> 0
    | Some bits -> Key.bits ~seed:(digest_seed t ~stage) k bits

  (* A slot index is its stage in the bits above [offset_bits] and its
     offset in the stage, [row * ways + way], below them, so [b + way]
     steps through a row. *)
  let[@inline] base t stage row = (stage lsl offset_bits) lor (row * t.n_ways)
  let[@inline] stage_of_idx _t idx = idx lsr offset_bits
  let[@inline] stage_array t i = Array.unsafe_get t.slots (i lsr offset_bits)
  let[@inline] word_at t i = Array.unsafe_get (stage_array t i) (2 * (i land offset_mask))
  let[@inline] handle_at t i = Array.unsafe_get (stage_array t i) ((2 * (i land offset_mask)) + 1)

  let set_slot t i word h =
    let a = stage_array t i and o = 2 * (i land offset_mask) in
    a.(o) <- word;
    a.(o + 1) <- h

  (* Each BFS enqueues at most [ways] nodes per newly visited row:
     bounded both by the root frontier plus (stages-1)*ways per
     expansion, and by every row being visited at most once. *)
  let ensure_arena t =
    if Array.length t.visited = 0 then begin
      let arena_cap =
        Int.min (capacity t)
          ((t.n_stages * t.n_ways) + (max_bfs_nodes * (t.n_stages - 1) * t.n_ways))
      in
      t.q_slot <- Array.make arena_cap 0;
      t.q_parent <- Array.make arena_cap (-1);
      t.visited <- Array.make (t.n_stages * t.n_rows) 0
    end

  type probe = {
    mutable probe_hit : bool;
    mutable probe_exact : bool;
    mutable probe_value : int;
    mutable probe_handle : int;
  }

  let make_probe () = { probe_hit = false; probe_exact = false; probe_value = 0; probe_handle = -1 }

  (* The hardware lookup: the first slot, in stage then way order, whose
     word's code matches — the stage's digest, or in exact mode the true
     key. [rows.(stage)] and [digests.(stage)] are the key's probe
     positions. Returns the slot index, or -1. A plain loop over local
     refs, not local recursive functions: those closures would be
     allocated on every call. A match ends both loops by moving their
     counters past the end, and the function is inlined into the
     per-packet [lookup_pos_into]: a [found] test in both loop
     conditions, or a call per lookup, each measured slower. *)
  let[@inline] first_match t k ~(rows : int array) ~(digests : int array) =
    let found = ref (-1) and stage = ref 0 in
    while !stage < t.n_stages do
      let a = Array.unsafe_get t.slots !stage in
      let o = Array.unsafe_get rows !stage * t.n_ways in
      let code = Array.unsafe_get digests !stage in
      let way = ref 0 in
      while !way < t.n_ways do
        let j = 2 * (o + !way) in
        let stored = Array.unsafe_get a j in
        if
          if t.exact_mode then stored >= 0 && Key.equal (t.key_of (Array.unsafe_get a (j + 1))) k
          else stored land digest_mask = code
        then begin
          found := (!stage lsl offset_bits) lor (o + !way);
          way := t.n_ways;
          stage := t.n_stages
        end
        else incr way
      done;
      incr stage
    done;
    !found

  (* [lookup] without the hit record: the caller derives each stage's
     row and digest once (via [row_seed]/[digest_seed] and the key's own
     [range]/[bits]) rather than through a functor call per stage, and
     the outcome lands in a caller-owned buffer, so the hardware fast
     path allocates nothing. *)
  let lookup_pos_into t ~key:k ~rows ~digests (p : probe) =
    let i = if Array.length t.slots = 0 then -1 else first_match t k ~rows ~digests in
    p.probe_hit <- i >= 0;
    if i >= 0 then begin
      let h = handle_at t i in
      p.probe_exact <- Key.equal (t.key_of h) k;
      p.probe_value <- value_of (word_at t i);
      p.probe_handle <- h
    end

  let lookup t k =
    let rows = t.look_rows and digests = t.look_digests in
    for stage = 0 to t.n_stages - 1 do
      rows.(stage) <- row_of t stage k;
      digests.(stage) <- code_of t stage k
    done;
    let i = if Array.length t.slots = 0 then -1 else first_match t k ~rows ~digests in
    if i < 0 then None
    else
      let h = handle_at t i in
      Some
        ({ stage = stage_of_idx t i; exact = Key.equal (t.key_of h) k; handle = h;
           value = value_of (word_at t i) }
          : hit)

  (* Software-side scan for an entry of [k]: it can only sit in one of
     [k]'s candidate rows. [handle >= 0] looks for that handle's entry
     ([k] its key), comparing ints; [handle = -1] for any entry whose
     true key equals [k]. Returns the slot index, or -1. Every insert
     and removal starts here, so it is a closure-free loop like
     [first_match]. Digest first: [place] always stores
     [code_of t stage k], so a way whose code differs cannot hold [k]
     (an empty word's code is above every digest, and above the
     exact-mode marker 0), and only the ways that match it are
     examined further. *)
  let locate t k ~handle =
    let found = ref (-1) and stage = ref (if Array.length t.slots = 0 then t.n_stages else 0) in
    while !found < 0 && !stage < t.n_stages do
      let b = base t !stage (row_of t !stage k) in
      let code = code_of t !stage k in
      let way = ref 0 in
      while !found < 0 && !way < t.n_ways do
        let i = b + !way in
        if
          word_at t i land digest_mask = code
          &&
          let h = handle_at t i in
          if handle >= 0 then h = handle else Key.equal (t.key_of h) k
        then found := i;
        incr way
      done;
      incr stage
    done;
    !found

  let locate_exact_idx t k = locate t k ~handle:(-1)
  let locate_handle t h = locate t (t.key_of h) ~handle:h

  let find_exact t k =
    let idx = locate_exact_idx t k in
    if idx < 0 then None else Some (value_of (word_at t idx))

  let handle_of t k =
    let idx = locate_exact_idx t k in
    if idx < 0 then -1 else handle_at t idx

  let mem_exact t k = locate_exact_idx t k >= 0

  let stage_of_exact t k =
    let idx = locate_exact_idx t k in
    if idx < 0 then None else Some (stage_of_idx t idx)

  let placement_allowed t h stage row =
    match t.placement_filter with
    | None -> true
    | Some f -> f h ~stage ~row

  (* Root stages an insert may use: any not in [forbid]. *)
  let allowed_root forbid stage = not (List.mem stage forbid)

  (* First free way of the row, or -1. *)
  let free_way_i t stage row =
    let b = base t stage row in
    let free = ref (-1) and way = ref 0 in
    while !free < 0 && !way < t.n_ways do
      if word_at t (b + !way) < 0 then free := !way;
      incr way
    done;
    !free

  (* entry [h] with value [v] into slot [idx], which is in [stage] *)
  let place t idx stage h v =
    set_slot t idx ((v lsl value_shift) lor code_of t stage (t.key_of h)) h

  let clear_slot t idx = set_slot t idx (-1) (-1)

  (* Greedy depth-1 kick: scan the eviction frontier in exactly the
     order the BFS would pop it (root stages ascending, ways ascending,
     the victim's alternative stages ascending) and move the first
     resident that has a free alternative slot. The frontier is at most
     [stages * ways] victims; when none of them can move, the BFS below
     re-derives the same frontier and searches deeper. *)
  exception Kick of int * int
  (* victim slot index, destination free slot index *)

  let greedy_pass t ~forbid h k =
    try
      let stage = ref 0 in
      while !stage < t.n_stages do
        let s = !stage in
        let row = row_of t s k in
        (* a root row with a free way failed the direct pass only by its
           veto; the veto of a full one is read once a victim could move *)
        if allowed_root forbid s && free_way_i t s row < 0 then begin
          let root = ref 0 in
          let b = base t s row in
          let way = ref 0 in
          while !way < t.n_ways do
            let vh = handle_at t (b + !way) in
            let vk = t.key_of vh in
            for s2 = 0 to t.n_stages - 1 do
              if s2 <> s then begin
                let row2 = row_of t s2 vk in
                let w2 = free_way_i t s2 row2 in
                if !root >= 0 && w2 >= 0 && placement_allowed t vh s2 row2 then begin
                  if !root = 0 then root := if placement_allowed t h s row then 1 else -1;
                  if !root > 0 then raise (Kick (b + !way, base t s2 row2 + w2))
                end
              end
            done;
            way := if !root < 0 then t.n_ways else !way + 1
          done
        end;
        incr stage
      done;
      (-1, -1)
    with Kick (v, d) -> (v, d)

  exception Found_free of int * int
  (* free slot index and the arena node whose occupant moves into it *)

  (* BFS over eviction chains, in the scratch arena:
     [q_slot]/[q_parent] are the queue and the eviction tree (parent -1 =
     a root, i.e. a candidate slot of [k] itself); [visited] uses
     generation stamps so no per-insert clearing is needed. Traversal
     order is identical to the reference implementation's queue-and-
     hashtable BFS. *)
  let bfs_insert t ~forbid h k v =
    ensure_arena t;
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
      let vi = (stage * t.n_rows) + row in
      if allowed_root forbid stage && t.visited.(vi) <> gen && placement_allowed t h stage row
      then begin
        begin
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
        while !head < !tail && !expanded < max_bfs_nodes do
          let node = !head in
          incr head;
          incr expanded;
          let vidx = t.q_slot.(node) in
          (* Roots were full by construction and no moves happen during
             the search, so every queued slot is still occupied. *)
          assert (word_at t vidx >= 0);
          let vh = handle_at t vidx in
          let vk = t.key_of vh in
          let ns = stage_of_idx t vidx in
          (* The occupant may move to its candidate row in any other stage. *)
          for stage = 0 to t.n_stages - 1 do
            if stage <> ns then begin
              let row = row_of t stage vk in
              (* the veto is read last: a visited row is skipped
                 whatever it says *)
              let w = free_way_i t stage row in
              if w >= 0 then begin
                if placement_allowed t vh stage row then
                  raise (Found_free (base t stage row + w, node))
              end
              else begin
                let vi = (stage * t.n_rows) + row in
                if t.visited.(vi) <> gen && placement_allowed t vh stage row then begin
                  t.visited.(vi) <- gen;
                  for way = 0 to t.n_ways - 1 do
                    enqueue (base t stage row + way) node
                  done
                end
              end
            end
          done
        done;
        t.failed_inserts <- t.failed_inserts + 1;
        Error `Full
      with Found_free (free_idx, last) ->
        (* Unwind the eviction chain leaf-to-root: each occupant moves
           into the slot freed by its successor; the root slot freed last
           is a candidate slot of [k]. *)
        let rec unwind free_idx node moves =
          if node < 0 then begin
            place t free_idx (stage_of_idx t free_idx) h v;
            moves
          end
          else begin
            let vidx = t.q_slot.(node) in
            let mh = handle_at t vidx and mv = value_of (word_at t vidx) in
            place t free_idx (stage_of_idx t free_idx) mh mv;
            clear_slot t vidx;
            unwind vidx t.q_parent.(node) (moves + 1)
          end
        in
        let moves = unwind free_idx last 0 in
        t.moves <- t.moves + moves;
        t.size <- t.size + 1;
        Ok moves
    in
    t.bfs_expansions <- t.bfs_expansions + !expanded;
    result

  let insert_kv t ~forbid h v =
    if Array.length t.slots = 0 then
      t.slots <- Array.init t.n_stages (fun _ -> Array.make (2 * t.n_rows * t.n_ways) (-1));
    let k = t.key_of h in
    (* Direct: a free slot in one of the candidate rows. *)
    let idx = ref (-1) and stage = ref 0 in
    while !idx < 0 && !stage < t.n_stages do
      let s = !stage in
      if allowed_root forbid s then begin
        let row = row_of t s k in
        let w = free_way_i t s row in
        if w >= 0 && placement_allowed t h s row then idx := base t s row + w
      end;
      incr stage
    done;
    let idx = !idx in
    if idx >= 0 then begin
      place t idx (stage_of_idx t idx) h v;
      t.size <- t.size + 1;
      Ok 0
    end
    else
      let vidx, dest = greedy_pass t ~forbid h k in
      if vidx >= 0 then begin
        let mh = handle_at t vidx and mv = value_of (word_at t vidx) in
        place t dest (stage_of_idx t dest) mh mv;
        place t vidx (stage_of_idx t vidx) h v;
        t.moves <- t.moves + 1;
        t.greedy_kicks <- t.greedy_kicks + 1;
        t.size <- t.size + 1;
        Ok 1
      end
      else bfs_insert t ~forbid h k v

  let insert ?(forbid_stages = []) t h v =
    if v < 0 || v > max_value then invalid_arg "Cuckoo.insert: value outside [0, 2^31)"
    else if h < 0 then invalid_arg "Cuckoo.insert: negative handle"
    else if locate_handle t h >= 0 then Error `Duplicate
    else insert_kv t ~forbid:forbid_stages h v

  let remove t h =
    let idx = locate_handle t h in
    if idx < 0 then false
    else begin
      clear_slot t idx;
      t.size <- t.size - 1;
      true
    end

  let relocate t h ~forbid_stages =
    let idx = locate_handle t h in
    if idx < 0 then Error `Not_found
    else
      let stage = stage_of_idx t idx in
      if List.mem stage forbid_stages then begin
        let word = word_at t idx in
        clear_slot t idx;
        t.size <- t.size - 1;
        match insert_kv t ~forbid:forbid_stages h (value_of word) with
        | Ok moves -> Ok (moves + 1)
        | Error `Full ->
          (* Roll back so the table is unchanged on failure. *)
          set_slot t idx word h;
          t.size <- t.size + 1;
          Error `Full
      end
      else Ok 0

  let moves t = t.moves
  let failed_inserts t = t.failed_inserts
  let greedy_kicks t = t.greedy_kicks
  let bfs_expansions t = t.bfs_expansions

  let probe_positions t k =
    List.init t.n_stages (fun stage ->
        let digest = if t.exact_mode then -1 else code_of t stage k in
        (stage, row_of t stage k, digest))

  let iter t f =
    Array.iter
      (fun a ->
        for o = 0 to (Array.length a / 2) - 1 do
          if a.(2 * o) >= 0 then f a.((2 * o) + 1) (value_of a.(2 * o))
        done)
      t.slots

  let set_placement_filter t f = t.placement_filter <- f
end

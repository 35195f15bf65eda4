(** Multi-stage cuckoo exact-match tables — flat SoA layout.

    Modern switching ASICs implement large exact-match tables as cuckoo
    hash tables spread over several physical pipeline stages (§4.1). Each
    stage has its own hash function addressing rows of [ways] slots
    (word packing puts the [ways] entries of a row in one SRAM word).
    Lookup probes one row per stage at line rate; insertion is performed
    by the switch CPU, which first tries a greedy kick of the depth-1
    eviction frontier and then runs a breadth-first search over
    eviction chains to make room ("a sequence of moves").

    Values are ints, and so are entries' owners: each entry is stored
    under a {e handle}, an int the table resolves to the entry's true
    key through the [key_of] function given to {!Make.create} (the
    switch software's copy of the key, §4.2). Each stage is one flat
    int array with two ints per slot: the word holding the stored digest
    and the value (the digest+version word of §4.2's ConnTable entry),
    and the handle beside it. A row's [ways] slots sit side by side, as
    the hardware packs them into one SRAM word; a hit reads its value
    and its handle from the slot it matched, and the true key through
    the handle. The table holds no pointer, and its arrays are
    allocated by the first insert. The eviction BFS runs in a scratch arena that the
    first insert reaching the BFS allocates and later ones reuse, so
    inserts allocate nothing and a table that never needs the BFS
    never holds the arena. The test suite keeps the original per-slot
    boxed layout as a reference and pins this one placement-identical
    to it.

    Two matching modes are supported:

    - {b exact}: the full key (through the handle) is compared — no false hits;
    - {b digest} ([digest_bits = Some b]): only a per-stage [b]-bit hash
      digest of the key is stored and compared, the compression at the
      heart of SilkRoad's ConnTable (§4.2). Lookups can then falsely hit
      an entry whose digest collides; software-side functions
      ({!Make.find_exact}, {!Make.remove}, {!Make.relocate}) always use
      the true key or the handle, which the switch software keeps in
      its shadow copy.

    The table never resizes: when the BFS cannot free a slot the insert
    fails with [`Full], which is exactly the "ConnTable is full" overflow
    condition §7 discusses. *)

(** A key supplies its stage positions as plain ints: every row and
    digest the table computes, on lookup, insert, eviction and removal,
    comes from {!KEY.range} and {!KEY.bits}, so none of them boxes an
    [int64] across the functor boundary. *)
module type KEY = sig
  type t

  val equal : t -> t -> bool

  val range : seed:int -> t -> int -> int
  (** [range ~seed k n] maps the key's [seed]-keyed hash uniformly onto
      [0, n): [Hashing.to_range h n] of that hash [h]. *)

  val bits : seed:int -> t -> int -> int
  (** [bits ~seed k b] keeps the low [b] bits of the same hash:
      [Hashing.truncate_bits h b]. *)
end

module Make (Key : KEY) : sig
  type key = Key.t
  type t

  type hit = {
    stage : int;  (** stage of the matching entry *)
    exact : bool;  (** false when the hit is a digest false positive *)
    handle : int;  (** the matched entry's handle *)
    value : int;
  }

  val create :
    ?seed:int ->
    ?digest_bits:int ->
    key_of:(int -> key) ->
    stages:int ->
    rows_per_stage:int ->
    ways:int ->
    unit ->
    t
  (** [key_of h] is the true key of the entry stored under handle [h];
      the table calls it for every true-key comparison and whenever an
      insert moves an entry (to hash the key for its new stage), so it
      must answer for every handle in the table. An insert's
      eviction-chain BFS makes at most 4096 expansions before it
      reports the table full. [digest_bits] must be in [1, 30]. *)

  val stages : t -> int
  val capacity : t -> int
  val size : t -> int
  val occupancy : t -> float

  val lookup : t -> key -> hit option
  (** Hardware lookup: probes stages in pipeline order, and each row's
      ways in order, and returns the first slot whose stored key (digest
      or full key) matches. *)

  type probe = {
    mutable probe_hit : bool;
    mutable probe_exact : bool;
    mutable probe_value : int;
    mutable probe_handle : int;
  }
  (** Caller-owned result buffer for {!lookup_pos_into}: the replay fast
      path reuses one per table instead of allocating a hit record per
      packet. Fields other than [probe_hit] are meaningful only when
      [probe_hit] is true. *)

  val make_probe : unit -> probe
  (** A fresh buffer. *)

  val row_seed : t -> stage:int -> int
  (** Seed for the stage's row-index hash: the row is
      [Key.range ~seed k rows_per_stage]. Callers that probe every stage
      per packet compute the rows once themselves and feed them to
      {!lookup_pos_into}, instead of two functor calls per stage. *)

  val digest_seed : t -> stage:int -> int
  (** Seed for the stage's digest hash; the digest is
      [Key.bits ~seed k digest_bits]. *)

  val lookup_pos_into :
    t -> key:key -> rows:int array -> digests:int array -> probe -> unit
  (** Allocation-free {!lookup} with caller-precomputed probe
      positions: [rows.(stage)] and [digests.(stage)] must equal the
      row and digest {!probe_positions} gives for [key] at [stage]
      (computed via {!row_seed}/{!digest_seed}). Probes the same slots
      in the same order as {!lookup} and writes the outcome into the
      buffer; [digests] is ignored in exact mode. *)

  val find_exact : t -> key -> int option
  (** Software lookup by true key. *)

  val mem_exact : t -> key -> bool

  val handle_of : t -> key -> int
  (** The handle of the entry whose true key is [key], or [-1]. *)

  val insert :
    ?forbid_stages:int list -> t -> int -> int -> (int, [ `Full | `Duplicate ]) result
  (** [insert t h v] places an entry for handle [h] ([>= 0]; its key is
      [key_of h]) with value [v], which must be in [[0, 2^31)] (it
      shares the slot's word with the digest; raises [Invalid_argument]
      otherwise), evicting residents as needed — first a greedy depth-1
      kick pass, then the BFS over eviction chains; [Ok moves] reports
      how many existing entries were moved. [forbid_stages] restricts
      only where [h] itself lands (entries displaced along the eviction
      chain may go anywhere). [`Duplicate] if [h] already has an entry. *)

  val remove : t -> int -> bool
  (** Remove handle [h]'s entry. Returns false when absent. *)

  val relocate : t -> int -> forbid_stages:int list -> (int, [ `Full | `Not_found ]) result
  (** Move an existing entry so that it no longer occupies any of
      [forbid_stages]. Used to repair digest false positives (§4.2):
      the colliding resident entry is migrated to another stage, whose
      different hash function separates the two connections. *)

  val moves : t -> int
  (** Cumulative entry moves performed by insertions/relocations. *)

  val failed_inserts : t -> int

  val greedy_kicks : t -> int
  (** Inserts resolved by the greedy depth-1 kick pass (each performed
      exactly one move without entering the BFS). *)

  val bfs_expansions : t -> int
  (** Cumulative BFS node expansions across all inserts. *)

  val stage_of_exact : t -> key -> int option
  (** Which stage holds the entry with this true key, if any. *)

  val probe_positions : t -> key -> (int * int * int) list
  (** [(stage, row, digest)] triples the hardware probes when looking up
      this key — one per stage ([digest] is [-1] in exact mode). Lets the
      switch software maintain a shadow index of which table positions
      each tracked connection would match. *)

  val iter : t -> (int -> int -> unit) -> unit
  (** [iter t f] calls [f handle value] for every entry, in slot order. *)

  val set_placement_filter : t -> (int -> stage:int -> row:int -> bool) option -> unit
  (** Software veto over entry placement: when set, handle [h]'s entry
      may only be placed (by insertion, eviction moves or relocation) in
      a row where the filter returns [true]. Used to refuse positions
      that would make an existing connection falsely match the new
      entry (digest shadowing). *)
end

(** Shared signature for the multi-stage cuckoo exact-match tables.

    Two implementations satisfy {!S}: {!Cuckoo.Make}, the flat
    structure-of-arrays layout used in production, and
    {!Cuckoo_boxed.Make}, the original per-slot boxed-record layout kept
    as the differential-testing reference. Both implement the same §4.1
    hardware model — per-stage hash functions addressing rows of [ways]
    slots, line-rate lookups, switch-CPU inserts via eviction chains —
    and are required by the test suite to make {e identical} placement
    decisions for identical operation sequences.

    A key supplies its stage positions as plain ints: every row and
    digest the tables compute, on lookup, insert, eviction and removal,
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

module type S = sig
  type key
  type 'v t

  type 'v hit = {
    stage : int;  (** stage of the matching entry *)
    exact : bool;  (** false when the hit is a digest false positive *)
    key : key;  (** the true key of the matched entry *)
    value : 'v;
  }

  val create :
    ?seed:int ->
    ?digest_bits:int ->
    ?max_bfs_nodes:int ->
    ?max_kicks:int ->
    stages:int ->
    rows_per_stage:int ->
    ways:int ->
    unit ->
    'v t
  (** [max_bfs_nodes] bounds the eviction-chain BFS (default 4096
      expansions); [max_kicks] bounds the greedy depth-1 kick pass that
      runs before the BFS (default [stages * ways], i.e. the whole
      depth-1 frontier — implementations without a kick pass ignore
      it). *)

  val stages : _ t -> int
  val rows_per_stage : _ t -> int
  val ways : _ t -> int
  val digest_bits : _ t -> int option
  val capacity : _ t -> int
  val size : _ t -> int
  val occupancy : _ t -> float

  val max_bfs_nodes : _ t -> int
  (** The BFS expansion bound this table was created with. *)

  val lookup : 'v t -> key -> 'v hit option
  (** Hardware lookup: probes stages in pipeline order and returns the
      first slot whose stored key (digest or full key) matches. *)

  type 'v probe = {
    mutable probe_hit : bool;
    mutable probe_exact : bool;
    mutable probe_stage : int;
    mutable probe_value : 'v;
  }
  (** Caller-owned result buffer for {!lookup_pos_into}: the replay fast
      path reuses one per table instead of allocating a hit record per
      packet. Fields other than [probe_hit] are meaningful only when
      [probe_hit] is true. *)

  val make_probe : 'v -> 'v probe
  (** A fresh buffer; the argument is a placeholder value. *)

  val row_seed : _ t -> stage:int -> int
  (** Seed for the stage's row-index hash: the row is
      [Key.range ~seed k rows_per_stage]. Callers that probe every stage
      per packet compute the rows once themselves and feed them to
      {!lookup_pos_into}, instead of two functor calls per stage. *)

  val digest_seed : _ t -> stage:int -> int
  (** Seed for the stage's digest hash; the digest is
      [Key.bits ~seed k digest_bits]. *)

  val probe_row : _ t -> key -> stage:int -> int
  (** Row the hardware probes for this key at [stage]. *)

  val probe_digest : _ t -> key -> stage:int -> int
  (** Digest stored/compared for this key at [stage]; [-1] in exact
      mode. *)

  val lookup_pos_into :
    'v t -> key:key -> rows:int array -> digests:int array -> 'v probe -> unit
  (** Allocation-free {!lookup} with caller-precomputed probe
      positions: [rows.(stage)] and [digests.(stage)] must equal
      [probe_row]/[probe_digest] for [key] (computed via
      {!row_seed}/{!digest_seed}). Probes the same slots in the same
      order as {!lookup} and writes the outcome into the buffer;
      [digests] is ignored in exact mode. *)

  val find_exact : 'v t -> key -> 'v option
  (** Software lookup by true key. *)

  val mem_exact : _ t -> key -> bool

  val insert :
    ?forbid_stages:int list -> 'v t -> key -> 'v -> (int, [ `Full | `Duplicate ]) result
  (** [insert t k v] places [k], evicting residents as needed — first a
      bounded greedy depth-1 kick pass, then the BFS over eviction
      chains; [Ok moves] reports how many existing entries were moved.
      [forbid_stages] restricts only where [k] itself lands (entries
      displaced along the eviction chain may go anywhere). [`Duplicate]
      if [k] is already present. *)

  val remove : 'v t -> key -> bool
  (** Remove by true key. Returns false when absent. *)

  val set_exact : 'v t -> key -> 'v -> bool
  (** Update the value of an existing entry in place. *)

  val relocate : 'v t -> key -> forbid_stages:int list -> (int, [ `Full | `Not_found ]) result
  (** Move an existing entry so that it no longer occupies any of
      [forbid_stages]. Used to repair digest false positives (§4.2):
      the colliding resident entry is migrated to another stage, whose
      different hash function separates the two connections. *)

  val iter : (key -> 'v -> unit) -> 'v t -> unit
  val fold : (key -> 'v -> 'a -> 'a) -> 'v t -> 'a -> 'a

  val moves : _ t -> int
  (** Cumulative entry moves performed by insertions/relocations. *)

  val failed_inserts : _ t -> int

  val greedy_kicks : _ t -> int
  (** Inserts resolved by the greedy depth-1 kick pass (each performed
      exactly one move without entering the BFS). *)

  val bfs_expansions : _ t -> int
  (** Cumulative BFS node expansions across all inserts. *)

  val last_bfs_expanded : _ t -> int
  (** Node expansions performed by the most recent BFS run (0 if the
      last insert never reached the BFS). *)

  val first_full_occupancy : _ t -> float option
  (** Occupancy at the first insert that failed with [`Full]; [None]
      while no insert has failed. The §7 overflow diagnostic: how full
      the table really was when the eviction search first gave up. *)

  val stage_of_exact : _ t -> key -> int option
  (** Which stage holds the entry with this true key, if any. *)

  val probe_positions : _ t -> key -> (int * int * int) list
  (** [(stage, row, digest)] triples the hardware probes when looking up
      this key — one per stage ([digest] is [-1] in exact mode). Lets the
      switch software maintain a shadow index of which table positions
      each tracked connection would match. *)

  val set_placement_filter : 'v t -> (key -> stage:int -> row:int -> bool) option -> unit
  (** Software veto over entry placement: when set, an entry for [key]
      may only be placed (by insertion, eviction moves or relocation) in
      a row where the filter returns [true]. Used to refuse positions
      that would make an existing connection falsely match the new
      entry (digest shadowing). *)
end

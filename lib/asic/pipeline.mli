(** A match-action pipeline's stage model and a static allocator.

    A switching ASIC is not one pool of memory: it is [n_stages]
    match-action stages, each with its own match crossbar, SRAM, TCAM,
    VLIW action slots, hash-distribution bits and stateful ALUs, plus a
    chip-wide packet header vector (PHV) budget. A program is feasible
    only if every logical table can be placed in some stage (or spread
    over several) without exceeding any per-stage budget, with tables
    that depend on another's result placed in strictly later stages.

    This module is the static model behind [silkroad-lint]'s pipeline
    feasibility checker: callers describe their tables and register
    arrays as {!item}s (resources from {!Table_spec.resources} /
    {!Resources.t}), pick a {!chip}, and {!allocate} either produces a
    stage-by-stage placement with utilization figures or the {e first
    infeasible resource class} — before anything is simulated. *)

type resource_class =
  | Crossbar
  | Sram
  | Tcam
  | Vliw
  | Hash
  | Salu
  | Phv

type chip = {
  chip_name : string;
  n_stages : int;
  stage_budget : Resources.t;
      (** per-stage budgets; the [phv_bits] field is ignored (PHV is
          chip-wide) *)
  chip_phv_bits : int;  (** whole-chip PHV budget in bits *)
  baseline : Resources.t;
      (** the resident program (the paper's [switch.p4] baseline, the
          frozen Table 2 vector) — spread uniformly across stages before
          any item is placed *)
}

val tofino_like : baseline:Resources.t -> chip
(** A 12-stage chip of the paper's §6 generation (Table 2 era): 48 Mb
    SRAM, 512 Kb TCAM, 640 crossbar bits, 16 VLIW slots, 192 hash bits
    and 4 stateful ALUs per stage, 6400 PHV bits chip-wide — a 75 MB
    SRAM chip, inside the 50–100 MB band of §6's ASIC-generation table.
    [baseline] must itself fit the chip. *)

type item = {
  item_name : string;
  needs : Resources.t;
      (** logical totals, counted once per item (this is what Table 2
          sums); stage occupancy is derived from it by the allocator *)
  after : string list;
      (** names of items whose match result this one consumes: it must
          land in a strictly later stage than each of them *)
  divisible : bool;
      (** a divisible item's SRAM may spread over several stages (the
          ConnTable's cuckoo partitions); its match key is then
          re-presented to the crossbar of every stage it occupies *)
}

val item : ?after:string list -> ?divisible:bool -> name:string -> Resources.t -> item

val item_of_table : ?after:string list -> ?divisible:bool -> Table_spec.t -> item
(** An item named and sized by a table spec. *)

type failure = {
  failed_item : string;
  failed_class : resource_class option;
      (** [Some c]: resource class [c] is the first one that cannot fit;
          [None]: every class fits some stage individually but the chip
          ran out of stages (dependency depth or fragmentation) *)
  needed : int;
  available : int;
  at_stage : int option;  (** [None] for chip-wide classes (PHV) *)
  spread : bool;
      (** [true] when [needed]/[available] are cross-stage totals (a
          divisible item that exhausted the whole pipeline's SRAM, or
          the chip-wide PHV budget) rather than per-stage maxima *)
}

type placement = {
  placed : item;
  first_stage : int;
  last_stage : int;  (** = [first_stage] unless the item spread *)
}

type report = {
  chip : chip;
  items : item list;
  placements : placement list;  (** in placement order *)
  per_stage : Resources.t array;
      (** per-stage usage including the baseline share; length
          [n_stages] *)
  total_additional : Resources.t;  (** [Resources.sum] of the items *)
  phv_used : int;  (** baseline + items, chip-wide *)
  failure : failure option;
}

val allocate : chip -> item list -> report
(** Greedy dependency-respecting placement: items are processed in list
    order (dependencies must appear before their dependents — the list
    order is the program order), each placed in the earliest admissible
    stage. On the first item that cannot be placed, allocation stops and
    [failure] names the binding resource class. Raises [Invalid_argument]
    on an unknown or forward [after] reference, or if the baseline alone
    overflows a stage budget. *)

val pp_failure : Format.formatter -> failure -> unit
val pp_report : Format.formatter -> report -> unit

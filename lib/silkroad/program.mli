(** The SilkRoad P4 program's hardware footprint (Table 2).

    The paper implements SilkRoad in ~400 lines of P4 on top of a
    baseline [switch.p4] (~5000 lines of L2/L3/ACL/QoS) and reports the
    {e additional} pipeline resources at 1 M connection entries,
    normalized by the baseline's usage. We rebuild the addition from the
    table inventory of Figure 10 (ConnTable, VIPTable, DIPPoolTable,
    TransitTable, LearnTable) via {!Asic.Table_spec}, and normalize by a
    fixed baseline resource vector representing [switch.p4] (constants
    below, derived once from the paper's implied totals and kept
    frozen — so changes to our model show up as drift from Table 2). *)

val additional_resources : connections:int -> vips:int -> Asic.Resources.t
[@@silkroad.allow "surface.unused-export: test_analysis checks that the placeable items sum to the Table 2 resources"]
(** The sum of {!pipeline_items}' resources: the match tables, the
    TransitTable register array and stateful ALUs, and the metadata PHV
    bits. *)

val table2 : connections:int -> vips:int -> Asic.Resources.percentages
(** Additional usage as percentages of the baseline — Table 2's rows. *)

(** {1 Stage placement}

    The same inventory, viewed as placeable {!Asic.Pipeline} items with
    Figure 10's dependency structure (ConnTable → VIPTable →
    TransitTable/DIPPoolTable, LearnTable on the miss signal).
    {!additional_resources} is the items' sum, so the stage allocator
    places exactly what Table 2 counts. *)

val chip : unit -> Asic.Pipeline.chip
(** The §6-generation chip the checker places onto, with
    the frozen switch.p4 baseline (the base of {!table2}) resident. *)

val pipeline_items : connections:int -> vips:int -> Asic.Pipeline.item list
[@@silkroad.allow "surface.unused-export: test_analysis checks that the placeable items sum to the Table 2 resources"]
(** Items at the frozen §6 operating constants (16-bit digest, 6-bit
    versions) — the Table 2 path. *)

val items_of_config : ?vips:int -> Config.t -> Asic.Pipeline.item list

val feasibility : Config.t -> Asic.Pipeline.report
(** Place everything the configuration implies on {!chip}. A [failure]
    in the report means the configuration cannot be compiled to the
    ASIC: {!Switch.create} warns or refuses according to its [?check]
    argument, and [silkroad-lint] turns it into a diagnostic. *)

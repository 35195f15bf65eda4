(** Pipeline feasibility as diagnostics — the [pipe.*] and [net.*]
    rules of [silkroad-lint].

    {2 Single-switch mode}

    {!check_config} places everything a {!Silkroad.Config.t} implies
    (via {!Silkroad.Program.items_of_config}) on the §6-generation chip
    and turns the allocator's verdict into diagnostics: an [Error] with
    rule [pipe.<class>] ([pipe.sram], [pipe.hash], [pipe.salu],
    [pipe.crossbar], [pipe.tcam], [pipe.vliw], [pipe.phv]) or
    [pipe.stages] when the chip runs out of stages, with a numeric fix
    hint computed from the configuration (e.g. how many Mb a narrower
    digest saves); or an [Info] summarizing the placement when
    feasible. {!check_items} is the same for caller-supplied chips and
    items (used by the tests' crafted over-budget fixtures).

    {2 Network-wide mode (§5.3)}

    {!check_network} validates a VIP→layer assignment against
    per-switch SRAM and forwarding budgets using the §5 bin-packing
    heuristic: each VIP that no layer can host is a [net.unplaced]
    error, and a maximum per-switch SRAM utilization above 90% is a
    [net.sram-headroom] warning. *)

val check_items :
  ?cfg:Silkroad.Config.t ->
  Asic.Pipeline.chip ->
  Asic.Pipeline.item list ->
  Asic.Pipeline.report * Diag.t list
[@@silkroad.allow "surface.unused-export: test_analysis overflows one resource class at a time on small fixture chips; the program checks only the section 6 chip"]
(** Allocate and diagnose. [cfg], when given, is only used to compute
    numeric fix hints. *)

val check_config : ?vips:int -> Silkroad.Config.t -> Asic.Pipeline.report * Diag.t list
(** [check_items] on {!Silkroad.Program.chip} with the configuration's
    items ([vips] defaults to 1024). *)

val default_layers : Silkroad.Assignment.layer list
(** The three-tier topology the repo's experiments use (§5.3 /
    Figure 11): 48 ToR switches with 25 MB of LB SRAM each, 16 Agg
    with 50 MB, 4 Core with 80 MB. *)

val default_demands :
  ?cfg:Silkroad.Config.t -> vips:int -> unit -> Silkroad.Assignment.vip_demand list
(** A deterministic skewed demand set for [vips] VIPs: every 16th VIP
    is an elephant (2 M connections, 100 Gbps), every 4th a mid VIP
    (400 K, 12 Gbps), the rest mice (50 K, 1.5 Gbps); ConnTable bits
    follow [cfg]'s digest/version widths (default
    {!Silkroad.Config.default}). *)

val check_network :
  layers:Silkroad.Assignment.layer list ->
  vips:Silkroad.Assignment.vip_demand list ->
  unit ->
  Silkroad.Assignment.placement * Diag.t list

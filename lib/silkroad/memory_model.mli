(** Analytic SRAM model for ConnTable layouts and ASIC generations.

    Used by the scalability experiments (Table 1, Figures 12 and 14):
    given a cluster's connection count and address family, compute the
    switch SRAM needed under three ConnTable layouts —

    - [Naive]: full 5-tuple match key and full DIP action ("storing the
      states of ten million connections ... takes a few hundreds of MB");
    - [Digest_only]: 16-bit digest key, full DIP action;
    - [Digest_version]: 16-bit digest key and 6-bit version action, plus
      the DIPPoolTable indirection it requires.

    All sizes account for 112-bit word packing. *)

type layout =
  | Naive
  | Digest_only
  | Digest_version

type generation = {
  gen_name : string;
  gen_year : int;
  gen_tbps : float;
  gen_sram_mb_lo : int;
  gen_sram_mb_hi : int;
}

val asic_generations : generation list
(** Table 1: <1.6 Tbps / 2012 / 10–20 MB ... 6.4+ Tbps / 2016 /
    50–100 MB. *)

val conn_entry_bits : layout:layout -> ipv6:bool -> digest_bits:int -> version_bits:int -> int
[@@silkroad.allow "surface.unused-export: the per-entry sizes Table 1 is built from; test_silkroad pins the paper's anchors"]
(** Bits per ConnTable entry under the layout (including the 6-bit
    instruction/next-table overhead and, for [Naive]/[Digest_only], the
    DIP + port action data). *)

val conn_table_bits :
  layout:layout -> ipv6:bool -> digest_bits:int -> version_bits:int -> connections:int -> int
(** Word-packed ConnTable footprint. *)

val dip_pool_table_bits : ipv6:bool -> versions:int -> total_dips:int -> int
[@@silkroad.allow "surface.unused-export: the DIPPoolTable size Table 1 is built from; test_silkroad pins the paper's anchor"]
(** DIPPoolTable footprint: every live version holds its member DIPs
    ("64 versions of 4187 IPv6 DIPs" ≈ 4.8 MB). [total_dips] is the
    total membership across the VIPs' pools. *)

val switch_bits :
  layout:layout ->
  ipv6:bool ->
  digest_bits:int ->
  version_bits:int ->
  connections:int ->
  versions:int ->
  total_dips:int ->
  int
(** Full data-plane footprint of a layout: ConnTable plus (for
    [Digest_version]) DIPPoolTable. *)

val saving_percent : baseline:int -> compact:int -> float
(** [100 * (1 - compact/baseline)] — the Figure 14 metric. *)

val mb : int -> float
(** Bits to MiB, for reporting. *)

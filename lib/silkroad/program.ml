(* Table geometry mirrors Figure 10 with the §6 encoding: IPv6 keys,
   16-bit digests, 6-bit versions, 64 versions provisioned per VIP. *)

let digest_bits = 16
let version_bits = 6
let tuple_bits = 37 * 8  (* IPv6 5-tuple on the match crossbar *)
let vip_bits = (16 + 2) * 8  (* VIP address + port *)
let dip_bits = (16 + 2) * 8

(* bits to address the rows holding n entries, 4-way packed *)
let row_bits n =
  let rec go acc m = if m <= 1 then acc else go (acc + 1) ((m + 1) / 2) in
  go 0 (Int.max 1 (n / 4))

(* The frozen switch.p4 baseline vector. Derived once from the additions
   our model computes at the paper's operating point (1M connections) and
   Table 2's published percentages; kept constant thereafter. *)
let baseline_switch_p4 =
  Asic.Resources.make ~match_crossbar_bits:1600 ~sram_bits:180_000_000 ~tcam_bits:2_000_000
    ~vliw_actions:48 ~hash_bits:345 ~stateful_alus:9 ~phv_bits:5200 ()

let chip () = Asic.Pipeline.tofino_like ~baseline:baseline_switch_p4

(* The Figure 10 inventory as placeable items: [stages] cuckoo stages
   index the ConnTable, [versions] DIP-pool versions are provisioned per
   VIP, and the TransitTable is a [transit_bits] Bloom filter probed
   with [transit_hashes] hashes. Dependency structure: ConnTable is
   consulted first; VIPTable runs on its result (miss path); the
   TransitTable registers are read/written under VIPTable's phase
   flags; DIPPoolTable consumes the version whoever produced it.
   LearnTable fires on the ConnTable miss signal. *)
let items ~connections ~vips ~stages ~versions ~digest_bits ~version_bits ~transit_hashes
    ~transit_bits =
  let table = Asic.Pipeline.item_of_table and item = Asic.Pipeline.item in
  [
    (* ConnTable: digest -> version *)
    table ~divisible:true
      (Asic.Table_spec.make ~name:"ConnTable" ~entries:connections ~match_key_bits:tuple_bits
         ~stored_key_bits:digest_bits ~action_data_bits:version_bits ~n_actions:2
         ~index_hash_bits:(stages * (row_bits connections + digest_bits))
         ~metadata_phv_bits:version_bits ());
    (* VIPTable: VIP -> current version + update phase *)
    table ~after:[ "ConnTable" ]
      (Asic.Table_spec.make ~name:"VIPTable" ~entries:vips ~match_key_bits:vip_bits
         ~action_data_bits:(version_bits + 2) ~n_actions:2 ~index_hash_bits:(row_bits vips)
         ~metadata_phv_bits:(version_bits + 2) ());
    (* LearnTable: trigger connection learning on ConnTable miss *)
    table ~after:[ "ConnTable" ]
      (Asic.Table_spec.make ~name:"LearnTable" ~entries:1 ~match_key_bits:8 ~action_data_bits:0
         ~n_actions:1 ~metadata_phv_bits:2 ());
    (* TransitTable: the Bloom filter banks, one stateful ALU per hash *)
    item ~after:[ "VIPTable" ] ~name:"TransitTable"
      (Asic.Resources.make ~sram_bits:transit_bits ~stateful_alus:transit_hashes
         ~hash_bits:(transit_hashes * 11) ~vliw_actions:2 ~phv_bits:2 ());
    (* the learning-notification / stats registers *)
    item ~name:"LearnRegs" (Asic.Resources.make ~stateful_alus:2 ());
    (* DIPPoolTable member table: (VIP, version) group -> DIP; one member
       entry per (version, DIP) *)
    table ~after:[ "VIPTable" ]
      (Asic.Table_spec.make ~name:"DIPPoolTable" ~entries:(versions * vips)
         ~match_key_bits:(vip_bits + version_bits) ~action_data_bits:dip_bits ~n_actions:2
         ~index_hash_bits:(row_bits (versions * vips) + 14) ~metadata_phv_bits:0 ());
    (* intermediate metadata shared between the tables: old/new
       version, digest, update-phase flags *)
    item ~name:"Metadata"
      (Asic.Resources.make ~phv_bits:((2 * version_bits) + digest_bits + 4) ());
  ]

let transit_bloom_bits = 256 * 8
let transit_hashes = 2

let pipeline_items ~connections ~vips =
  items ~connections ~vips ~stages:2 ~versions:64 ~digest_bits ~version_bits ~transit_hashes
    ~transit_bits:transit_bloom_bits

let additional_resources ~connections ~vips =
  Asic.Resources.sum
    (List.map
       (fun (i : Asic.Pipeline.item) -> i.Asic.Pipeline.needs)
       (pipeline_items ~connections ~vips))

let table2 ~connections ~vips =
  Asic.Resources.relative_to ~base:baseline_switch_p4
    (additional_resources ~connections ~vips)

let items_of_config ?(vips = 1024) (cfg : Config.t) =
  items ~connections:(Config.conn_capacity cfg) ~vips ~stages:cfg.Config.conn_table_stages
    ~versions:(Config.max_versions cfg) ~digest_bits:cfg.Config.digest_bits
    ~version_bits:cfg.Config.version_bits ~transit_hashes:cfg.Config.transit_hashes
    ~transit_bits:(cfg.Config.transit_bytes * 8)

let feasibility cfg = Asic.Pipeline.allocate (chip ()) (items_of_config cfg)

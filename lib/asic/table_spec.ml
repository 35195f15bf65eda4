type t = {
  name : string;
  entries : int;
  match_key_bits : int;
  stored_key_bits : int;
  action_data_bits : int;
  n_actions : int;
  index_hash_bits : int;
  metadata_phv_bits : int;
}

let make ~name ~entries ~match_key_bits ?stored_key_bits ~action_data_bits ?(n_actions = 1)
    ?(index_hash_bits = 0) ?(metadata_phv_bits = 0) () =
  assert (entries >= 0);
  {
    name;
    entries;
    match_key_bits;
    stored_key_bits = (match stored_key_bits with Some b -> b | None -> match_key_bits);
    action_data_bits;
    n_actions;
    index_hash_bits;
    metadata_phv_bits;
  }

(* an instruction address and a next table address (§6 footnote 5) *)
let overhead_bits = 6

let entry_bits t = t.stored_key_bits + t.action_data_bits + overhead_bits

let sram_bits t =
  if t.entries = 0 then 0
  else Sram.bits_for_entries ~entry_bits:(entry_bits t) ~entries:t.entries

let resources t =
  Resources.make ~match_crossbar_bits:t.match_key_bits ~sram_bits:(sram_bits t)
    ~vliw_actions:t.n_actions ~hash_bits:t.index_hash_bits ~phv_bits:t.metadata_phv_bits ()

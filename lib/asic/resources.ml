type t = {
  match_crossbar_bits : int;
  sram_bits : int;
  tcam_bits : int;
  vliw_actions : int;
  hash_bits : int;
  stateful_alus : int;
  phv_bits : int;
}

let zero =
  {
    match_crossbar_bits = 0;
    sram_bits = 0;
    tcam_bits = 0;
    vliw_actions = 0;
    hash_bits = 0;
    stateful_alus = 0;
    phv_bits = 0;
  }

let add a b =
  {
    match_crossbar_bits = a.match_crossbar_bits + b.match_crossbar_bits;
    sram_bits = a.sram_bits + b.sram_bits;
    tcam_bits = a.tcam_bits + b.tcam_bits;
    vliw_actions = a.vliw_actions + b.vliw_actions;
    hash_bits = a.hash_bits + b.hash_bits;
    stateful_alus = a.stateful_alus + b.stateful_alus;
    phv_bits = a.phv_bits + b.phv_bits;
  }

let sum = List.fold_left add zero

let make ?(match_crossbar_bits = 0) ?(sram_bits = 0) ?(tcam_bits = 0) ?(vliw_actions = 0)
    ?(hash_bits = 0) ?(stateful_alus = 0) ?(phv_bits = 0) () =
  { match_crossbar_bits; sram_bits; tcam_bits; vliw_actions; hash_bits; stateful_alus; phv_bits }

type percentages = {
  p_match_crossbar : float;
  p_sram : float;
  p_tcam : float;
  p_vliw : float;
  p_hash_bits : float;
  p_stateful_alus : float;
  p_phv : float;
}

let pct part base =
  if base = 0 then if part = 0 then 0. else infinity
  else 100. *. float_of_int part /. float_of_int base

let relative_to ~base t =
  {
    p_match_crossbar = pct t.match_crossbar_bits base.match_crossbar_bits;
    p_sram = pct t.sram_bits base.sram_bits;
    p_tcam = pct t.tcam_bits base.tcam_bits;
    p_vliw = pct t.vliw_actions base.vliw_actions;
    p_hash_bits = pct t.hash_bits base.hash_bits;
    p_stateful_alus = pct t.stateful_alus base.stateful_alus;
    p_phv = pct t.phv_bits base.phv_bits;
  }

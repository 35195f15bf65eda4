(** Hardware resource accounting for a match-action pipeline.

    These are the seven resource classes Table 2 of the paper reports:
    match crossbar bits, SRAM, TCAM, VLIW action slots, hash bits,
    stateful ALUs and PHV (packet header vector) bits. Every table,
    register array and meter in our ASIC model reports its consumption
    as a value of this type; a whole program is the sum. *)

type t = {
  match_crossbar_bits : int;
  sram_bits : int;
  tcam_bits : int;
  vliw_actions : int;
  hash_bits : int;
  stateful_alus : int;
  phv_bits : int;
}

val sum : t list -> t

val make :
  ?match_crossbar_bits:int ->
  ?sram_bits:int ->
  ?tcam_bits:int ->
  ?vliw_actions:int ->
  ?hash_bits:int ->
  ?stateful_alus:int ->
  ?phv_bits:int ->
  unit ->
  t

type percentages = {
  p_match_crossbar : float;
  p_sram : float;
  p_tcam : float;
  p_vliw : float;
  p_hash_bits : float;
  p_stateful_alus : float;
  p_phv : float;
}

val relative_to : base:t -> t -> percentages
(** [relative_to ~base extra] expresses [extra] as a percentage of
    [base], field by field (Table 2's "additional usage normalized by
    the baseline switch.p4"). A zero base field with non-zero extra
    yields [infinity]; zero over zero yields [0.]. *)

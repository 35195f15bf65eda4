(** Static resource model of a match-action table.

    Given a table's geometry (entries, key width, action data width,
    per-entry overhead) this computes the pipeline resources it consumes,
    mirroring how a P4 compiler reports usage: match key bits go through
    the match crossbar, stored entries consume word-packed SRAM, hash
    units provide the cuckoo row addressing (and digest computation),
    each action uses a VLIW slot, and any metadata the table produces
    occupies PHV bits. Used to reproduce Table 2. *)

type t = {
  name : string;
  entries : int;  (** provisioned capacity *)
  match_key_bits : int;  (** bits presented to the match crossbar *)
  stored_key_bits : int;  (** bits stored per entry (digest or full key) *)
  action_data_bits : int;
  n_actions : int;
  index_hash_bits : int;  (** hash bits for row addressing / digests *)
  metadata_phv_bits : int;
}

val make :
  name:string ->
  entries:int ->
  match_key_bits:int ->
  ?stored_key_bits:int ->
  action_data_bits:int ->
  ?n_actions:int ->
  ?index_hash_bits:int ->
  ?metadata_phv_bits:int ->
  unit ->
  t
(** [stored_key_bits] defaults to [match_key_bits] (exact match storing
    the full key). Every entry also stores 6 overhead bits, "an
    instruction address and a next table address" (§6 footnote 5). *)

val resources : t -> Resources.t

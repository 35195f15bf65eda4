(** The chaos run report: one self-contained JSON document per
    (scenario, seed, balancer) run, with the PCC outcome and every
    [chaos.*] counter — including the per-fault attribution breakdown —
    pulled out of the run's telemetry snapshot.

    Rendering is deterministic: same snapshot, same bytes. The
    determinism regression test compares two independently compiled and
    executed runs of the same (scenario, seed) byte-for-byte. *)

type t = {
  scenario : string;
  description : string;
  seed : int;
  horizon : float;
  balancer : string;
  connections : int;
  broken_connections : int;
  broken_fraction : float;
  violation_packets : int;
  dropped_packets : int;
  counters : (string * int) list;
      (** every unlabeled [chaos.*] counter in the snapshot, sorted by name *)
  events_by_fault : (string * int) list;  (** [chaos.events] by fault label, sorted *)
  violations_by_fault : (string * int) list;
      (** [chaos.violations] by fault label, sorted *)
}

val build :
  scenario:Scenario.t ->
  seed:int ->
  horizon:float ->
  balancer:string ->
  connections:int ->
  broken_connections:int ->
  broken_fraction:float ->
  violation_packets:int ->
  dropped_packets:int ->
  telemetry:Telemetry.Snapshot.t ->
  t

val to_json : t -> string
[@@silkroad.allow "surface.unused-export: test_chaos checks the bytes save writes are identical across runs"]
(** Pretty-printed; ends with a newline. *)

val save : string -> t -> unit
val pp : Format.formatter -> t -> unit

(** Bounded exhaustive model checking of the §4.3 update machinery.

    The checker runs a {e small-scope} abstract model of one
    {!Silkroad.Switch}: a single VIP, a handful of connections with
    forced digest collisions and TransitTable (Bloom) aliases, a version
    ring of [2^version_bits] slots, the pending-update queue, and the
    asynchronous learn → switch-CPU → install pipeline with the exact
    timing rules of {!Asic.Learning_filter} and {!Asic.Switch_cpu}. For
    a scope of [k] pool updates and [m] packet arrivals it enumerates
    {e all} interleavings (orders of the merged event stream) across
    several timing regimes, and checks two properties after every event:

    - {b PCC}: every judged packet of a connection is forwarded to the
      DIP of its first packet, judged by {!Lb.Pcc.Flat} — the judge the
      replay engines call, including the removed-DIP exclusion rule;
    - {b no premature version recycle}: no live connection ever
      references a DIP-pool version that has been destroyed.

    Every schedule the model explores is directly realizable on the real
    switch — install and delete completions are not free interleaving
    choices but are computed with the mirrored timing rules — so a
    counterexample converts to a concrete replay: a {!Harness.Packed_trace}
    plus control list for {!Harness.Replay.run}, and a serve-mode script
    for [silkroad_cli serve --script]. Seeded mutations (TransitTable
    insert disabled; barrier force-release racing a slow switch CPU)
    must each produce a counterexample that demonstrably breaks PCC when
    replayed on the real switch; the shipped semantics must exhaust the
    scope with zero violations. A conformance harness
    ({!model_observe} / {!switch_observe}) pins the model to the real
    switch per-packet on sampled interleavings. *)

(** {2 Scopes} *)

type regime = {
  rg_name : string;
  cpu_rate : float;  (** switch-CPU insertions per second *)
  learn_timeout : float;  (** learning-filter batch deadline, seconds *)
  gap : float;  (** spacing of the event time grid, seconds *)
}

type pattern = {
  pat_name : string;
  collide : bool;  (** flows 0 and 1 share a ConnTable digest/bucket *)
  alias : bool;  (** recording flow 0 makes flow 1 falsely hit transit *)
}

type scope = {
  sc_name : string;
  sc_updates : int;  (** k: DIP removals, applied in a fixed order *)
  sc_flow_packets : int list;  (** packets per judged flow (>= 2 each) *)
  sc_regimes : regime list;
  sc_patterns : pattern list;
}

val default_scopes : scope list
(** The CI scope: at least 3 updates x 4 packets, all four
    collision/alias patterns, three timing regimes. *)

val verify_config :
  ?use_transit:bool -> cpu_rate:float -> learn_timeout:float -> unit -> Silkroad.Config.t
(** The sized-down switch configuration the checker (and its real-switch
    replays) run under: 6-bit digests and a 4-byte TransitTable so
    collisions and aliases are dense enough to search for. *)

(** {2 Mutations} *)

type mutation =
  | Transit_insert_disabled
      (** step 1 records nothing ([use_transit = false]) — Figure 16's
          ablation; updates apply instantly, unprotected *)
  | Barrier_force_release
      (** the [Switch.barrier_deadline] liveness valve fires while the
          switch CPU is still installing the pending connection *)
  | Eager_version_gc
      (** model-only: step-3 GC destroys old versions while connections
          still reference them — must trip the recycle property *)

val mutations : mutation list
val mutation_name : mutation -> string

val mutation_model_only : mutation -> bool
(** [true] for mutations with no real-switch realization
    ({!Eager_version_gc}); these must trip a model property but are not
    replayed. *)

(** {2 Events and counterexamples} *)

type event =
  | Pkt of { eflow : int; esyn : bool; eends : bool }
  | Upd of int  (** index into the removal sequence *)

type counterexample = {
  ce_mutation : mutation option;  (** [None] = shipped semantics *)
  ce_scope : string;
  ce_regime : regime;
  ce_pattern : pattern;
  ce_cfg : Silkroad.Config.t;
  ce_vip : Netcore.Endpoint.t;
  ce_dips : Netcore.Endpoint.t array;  (** initial pool *)
  ce_removed : Netcore.Endpoint.t array;  (** per update, in order *)
  ce_flows : Netcore.Five_tuple.t array;
  ce_events : (float * event) list;  (** the violating schedule *)
  ce_kind : [ `Pcc | `Recycle ];
  ce_model_violations : int;
}

type outcome = {
  oc_runs : int;  (** interleavings explored (x regimes x patterns) *)
  oc_events : int;  (** total events stepped *)
  oc_violating : int;  (** runs with a PCC violation *)
  oc_recycled : int;  (** runs tripping the recycle property *)
  oc_forced : int;  (** runs where the barrier deadline fired *)
  oc_counterexamples : counterexample list;  (** capped *)
}

val check_scope : ?mutation:mutation -> scope -> outcome
(** Exhaust one scope. Without [?mutation], shipped semantics: the
    expectation is [oc_violating = 0], [oc_recycled = 0] and
    [oc_forced = 0] (the scope's regimes keep all delays under
    {!Silkroad.Switch.barrier_deadline}). *)

val mutation_scopes : mutation -> scope list
(** The scopes a mutation is hunted in (e.g. {!Barrier_force_release}
    needs a stretched grid and a pathologically slow CPU). *)

(** {2 Realizing counterexamples} *)

val ce_trace : counterexample -> Harness.Packed_trace.t
val ce_controls : counterexample -> (float * Harness.Replay.control) list

val ce_script : counterexample -> string
(** A serve-mode protocol script ({!Control.Protocol} lines, [#]
    comments carrying the config knobs) that replays the control half of
    the schedule; feed it to [silkroad_cli serve --script] together with
    [ce_trace] and the config from [ce_cfg]. *)

val replay_on_switch : counterexample -> Harness.Replay.result
(** Replay trace + controls through {!Harness.Replay.run} ([Scalar])
    against real {!Silkroad.Switch}es built from [ce_cfg]. For a PCC
    counterexample of a non-model-only mutation, the expectation is
    [violations > 0]. *)

(** {2 Conformance with the real switch} *)

type obs = {
  ob_dips : Netcore.Endpoint.t option array;
      (** per packet event, in schedule order; [None] = dropped *)
  ob_completed : int;
  ob_failed : int;
  ob_forced : int;
  ob_repairs : int;
}

val conformance_flows : cfg:Silkroad.Config.t -> n:int -> Netcore.Five_tuple.t array
(** [n] flows to one VIP that are pairwise ConnTable-collision-free and
    Bloom-alias-free (checked empirically against scratch tables, with
    every other flow recorded — membership is monotone in the bit set,
    so this covers every reachable TransitTable state). On these flows
    the model and the switch must agree packet-for-packet. *)

val model_observe :
  cfg:Silkroad.Config.t ->
  flows:Netcore.Five_tuple.t array ->
  removed:Netcore.Endpoint.t array ->
  events:(float * event) list ->
  horizon:float ->
  obs

val switch_observe :
  cfg:Silkroad.Config.t ->
  flows:Netcore.Five_tuple.t array ->
  removed:Netcore.Endpoint.t array ->
  events:(float * event) list ->
  horizon:float ->
  obs
(** Drive a real {!Silkroad.Switch.process_flow} through the same
    schedule ({!Harness.Replay.Stepper}'s discipline: packets strictly
    between controls, update exclusion before request). *)

val model_vip : Netcore.Endpoint.t
val model_dips : unit -> Netcore.Endpoint.t array
(** The fixed single-VIP world every scope runs in. *)

(** {2 Reports} *)

type report = {
  rp_shipped : (scope * outcome) list;
  rp_mutants :
    (mutation * outcome * (counterexample * Harness.Replay.result option) option) list;
      (** per mutation: its outcome, and the first counterexample that
          kills it (with the real-switch replay unless model-only) *)
  rp_diags : Diag.t list;
}

val run_verify : ?scopes:scope list -> ?mutants:mutation list -> unit -> report
(** The [silkroad_cli verify --model] entry point: exhaust the shipped
    scopes, then hunt every mutation. Diags: [model.scope] info lines
    with exploration counts; [model.pcc] / [model.recycle] /
    [model.forced] errors if shipped semantics misbehaves;
    [model.mutant] info when a mutation is killed (counterexample found
    {e and} its replay breaks PCC on the real switch), error when one
    survives. *)

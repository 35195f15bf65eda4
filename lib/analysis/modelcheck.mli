(** Bounded exhaustive model checking of the §4.3 update machinery.

    The checker runs the real {!Silkroad.Switch} on a {e small scope}:
    one VIP, two connections whose 5-tuples are searched so that they
    share (or do not share) a ConnTable digest position and a
    TransitTable (Bloom) alias, a version ring of [2^version_bits]
    slots, and the switch's own learn → switch-CPU → install pipeline.
    For a scope of [k] pool updates and [m] packet arrivals it
    enumerates {e all} interleavings (orders of the merged event stream)
    across several timing regimes and runs each on a fresh switch,
    judging three properties from the switch's own state:

    - {b PCC}: every packet of a connection is forwarded to the DIP of
      its first packet, judged by {!Lb.Pcc.Flat} — the judge the replay
      engines call, including the removed-DIP exclusion rule;
    - {b no premature version recycle}: {!Silkroad.Switch.check_invariants}
      holds after every event (its dead-version and refcount clauses);
    - {b no forced release}: the switch's [forced_transitions] stays 0
      in every shipped regime.

    Install and delete completions follow the switch's timing rules
    rather than free interleaving choices, so a counterexample converts
    to a concrete replay: a {!Harness.Packed_trace} plus control list
    for {!Harness.Replay.run}, and a serve-mode script for
    [silkroad_cli serve --script]. Seeded mutations (TransitTable insert
    disabled; barrier force-release racing a slow switch CPU; eager
    version GC) must each fail a property; the shipped semantics must
    exhaust the scope with no failure. *)

(** {2 Scopes} *)

type regime = {
  rg_name : string;
  cpu_rate : float;  (** switch-CPU insertions per second *)
  learn_timeout : float;  (** learning-filter batch deadline, seconds *)
  gap : float;  (** spacing of the event time grid, seconds *)
}

type pattern = {
  pat_name : string;
  collide : bool;
      (** flow 1 falsely hits flow 0's installed ConnTable entry (a
          shared stage/row/digest probe that the lookup really matches) *)
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
[@@silkroad.allow "surface.unused-export: test_verify exhausts the CI scopes one at a time"]
(** The CI scope: at least 3 updates x 4 packets, all four
    collision/alias patterns, three timing regimes. With two flows the
    alias patterns reach no branch [plain] does not: no SYN ever
    alias-hits the TransitTable in the [Dual] phase (DESIGN.md §9). *)

(** {2 Mutations} *)

type mutation =
  | Transit_insert_disabled
      (** step 1 records nothing ([use_transit = false]) — Figure 16's
          ablation; updates apply instantly, unprotected *)
  | Barrier_force_release
      (** the {!Silkroad.Update_job.barrier_deadline} liveness valve fires while the
          switch CPU is still installing the pending connection (the
          [stuck] regime: 10 s per install against the 5 s deadline) *)
  | Eager_version_gc
      (** when an update completes, the checker's
          {!Silkroad.Update_job.on_done} hook releases the old
          version's remaining references through
          {!Silkroad.Dip_pool_table.release} until it is destroyed while
          connections still use it — must trip the recycle property *)

val mutations : mutation list
[@@silkroad.allow "surface.unused-export: test_verify checks that every mutation is hunted and killed"]
val mutation_name : mutation -> string

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
  ce_violations : int;  (** PCC violations the run judged *)
}

type outcome = {
  oc_runs : int;  (** interleavings explored (x regimes x patterns) *)
  oc_events : int;  (** total events stepped *)
  oc_violating : int;  (** runs with a PCC violation *)
  oc_recycled : int;  (** runs failing {!Silkroad.Switch.check_invariants} *)
  oc_forced : int;  (** runs where the barrier deadline fired *)
  oc_false_hits : int;  (** runs with a ConnTable digest false hit *)
  oc_repairs : int;  (** runs with a collision repair *)
  oc_counterexamples : counterexample list;  (** capped *)
}

val check_scope : ?mutation:mutation -> scope -> outcome
[@@silkroad.allow "surface.unused-export: test_verify exhausts single scopes; the program runs them all through run_verify"]
(** Exhaust one scope. Without [?mutation], shipped semantics: the
    expectation is [oc_violating = 0], [oc_recycled = 0] and
    [oc_forced = 0] (the scope's regimes keep all delays under
    {!Silkroad.Update_job.barrier_deadline}). *)

val mutation_scope : mutation -> scope
[@@silkroad.allow "surface.unused-export: test_verify hunts each mutation in its own scope"]
(** The scope a mutation is hunted in (e.g. {!Barrier_force_release}
    needs a stretched grid and a pathologically slow CPU). *)

(** {2 Realizing counterexamples} *)

val ce_trace : counterexample -> Harness.Packed_trace.t
[@@silkroad.allow "surface.unused-export: test_verify replays each counterexample through serve and Replay"]
val ce_controls : counterexample -> (float * Harness.Replay.control) list
[@@silkroad.allow "surface.unused-export: test_verify replays each counterexample through serve and Replay"]

val ce_script : counterexample -> string
(** A serve-mode protocol script ({!Control.Protocol} lines, [#]
    comments carrying the config knobs) that replays the control half of
    the schedule; feed it to [silkroad_cli serve --script] together with
    [ce_trace] and the config from [ce_cfg]. *)

val replay_on_switch : counterexample -> Harness.Replay.result
[@@silkroad.allow "surface.unused-export: test_verify checks each counterexample reproduces on the switch"]
(** Replay trace + controls through {!Harness.Replay.run} ([Scalar])
    against real {!Silkroad.Switch}es built from [ce_cfg]. For a PCC
    counterexample the expectation is [violations = ce_violations]. *)

(** {2 Reports} *)

type report = {
  rp_shipped : (scope * outcome) list;
  rp_mutants :
    (mutation * outcome * (counterexample * Harness.Replay.result option) option) list;
      (** per mutation: its outcome, and the first counterexample that
          kills it, with its {!replay_on_switch} result ([None] for
          {!Eager_version_gc}, whose mutation an exported trace does
          not carry) *)
  rp_diags : Diag.t list;
}

val run_verify : unit -> report
(** The [silkroad_cli verify --model] entry point: exhaust the shipped
    scopes, then hunt every mutation. Diags: [model.scope] info lines
    with exploration counts; [model.pcc] / [model.recycle] /
    [model.forced] errors if shipped semantics misbehaves;
    [model.mutant] info when a mutation is killed; [model.replay] error
    when a killing PCC counterexample does not reproduce through
    {!Harness.Replay}; [model.mutant-survived] error when a mutation
    fails no property. *)

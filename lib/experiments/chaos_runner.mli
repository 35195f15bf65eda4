(** One-stop chaos execution: build the workload, compile the scenario,
    pick a balancer, run the harness, produce the report.

    Shared by [silkroad_cli chaos], the bench soak mode and the
    regression tests, so all three measure exactly the same thing. *)

type spec = {
  scenario : Chaos.Scenario.t;
  seed : int;
  seconds : float;  (** workload trace length (the harness adds drain time) *)
  rate : float;  (** new connections per second per VIP *)
  n_vips : int;
  dips_per_vip : int;
  probe_interval : float;
      (** seconds between PCC probes on established connections; small
          values make flows re-arrive quickly after a re-route, which is
          what the switch-failure/vip-migration scenarios measure *)
}

val default_spec : Chaos.Scenario.t -> seed:int -> spec
(** 240 s, 100 conns/s over 2 VIPs with 8 DIPs each — two full cycles of
    every built-in scenario. *)

val smoke_spec : Chaos.Scenario.t -> seed:int -> spec
(** A CI-speed operating point: 130 s (one cycle), 40 conns/s, 1 VIP. *)

val balancer_names : string list
(** ["silkroad"; "slb"; "duet"; "ecmp"]. The chaos runs give the
    baselines their stressed configurations: SLB gets a finite packet
    budget (so CPU stalls surface as overload), Duet migrates back every
    60 s (so repair-time remapping is observable inside the horizon). *)

val run : spec -> balancer:string -> Harness.Driver.result * Chaos.Report.t

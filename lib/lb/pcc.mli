(** The per-connection-consistency oracle.

    PCC (§2.1): for a given connection c, every packet of c must be
    mapped to the DIP chosen for c's first packet. The oracle watches
    every (flow, packet, chosen DIP) it is given and records,
    per flow, the first assignment and any later deviation. A flow with
    at least one deviating or dropped packet is a {e broken} connection —
    the quantity Figures 5b, 16, 17 and 18 report. *)

type t

val create : unit -> t

type verdict =
  | First  (** first packet of a new connection, assignment recorded *)
  | Consistent  (** matched the connection's first assignment *)
  | Violation  (** inconsistent or dropped — a PCC violation *)
  | Excluded  (** connection pinned to a removed DIP: not judged *)

val on_packet : t -> flow_id:int -> dip:Netcore.Endpoint.t option -> unit
(** [judge] with the verdict ignored. *)

val on_finish : t -> flow_id:int -> unit
(** The flow ended; its tracking state can be discarded (its verdict is
    kept). *)

val on_dip_removed : t -> dip:Netcore.Endpoint.t -> unit
(** A DIP left its pool (reboot, failure, ...): connections pinned to it
    are dead regardless of what the balancer does, so the oracle stops
    judging them. This mirrors the paper's accounting, where a PCC
    violation is a {e live} connection remapped away from a {e live}
    server. *)

val total : t -> int
(** Number of distinct connections observed. *)

val broken : t -> int
(** Connections with at least one inconsistent or dropped packet. *)

val violations : t -> int
(** Total inconsistent packets (a single broken connection may count
    several). *)

(** The flow-indexed, allocation-free refinement of the oracle above —
    the one judge every engine ([Harness.Driver], [Harness.Replay],
    [Netwide.Replay]) calls, and the one the model checker judges each
    enumerated schedule's real switch with; the oracle itself is
    the reference a qcheck property holds it equal to. Flows are dense
    indices [0 .. n-1]; the verdict counters live in caller-owned
    {!counters}, so engines that judge disjoint flow sets on several
    Domains keep one set per owner and sum them afterwards. *)
module Flat : sig
  val no_dip : Netcore.Endpoint.t
  (** The drop marker ({!Netcore.Endpoint.none}, compared with [==]):
      a dropped packet is judged with [no_dip], and a flow whose first
      packet was dropped keeps [no_dip] as its first DIP — the spec's
      [first = None]. *)

  type t

  val create : int -> t
  (** Judge state for [n] flows, none of them tracked yet: 13 bytes a
      flow on a 64-bit host — the first-DIP pointer, a state byte and
      the 4-byte log position ([born]) the lazy exclusion below needs. *)

  val first_dip : t -> Netcore.Endpoint.t array
  (** Per flow: the DIP of its most recent connection's first packet
      ([no_dip] when dropped or never sent). Kept after the flow ends. *)

  type counters = private {
    mutable packets : int;
    mutable dropped : int;
    mutable total : int;  (** the spec's [total] *)
    mutable broken : int;  (** the spec's [broken] *)
    mutable violations : int;  (** the spec's [violations] *)
    mutable retired : Netcore.Endpoint.t array;
        (** the exclusion log: every DIP {!exclude}d, oldest first *)
    mutable n_retired : int;  (** its length *)
  }

  val counters : unit -> counters
  (** All zero, with an empty exclusion log. *)

  val judge : t -> counters -> int -> Netcore.Endpoint.t -> ends:bool -> unit
  (** [judge t c i dip ~ends] is {!on_packet} for flow [i] (with
      [dip == no_dip] for [None]), followed by {!on_finish} when [ends].
      Also counts the packet, and the drop when [dip == no_dip]. A
      connection's first packet records [c]'s log length as its
      [born]; an inconsistent packet of a flow whose first DIP was
      logged in [c] since then excludes the flow instead of counting.
      Consistent and already-excluded packets allocate nothing. *)

  val exclude : counters -> Netcore.Endpoint.t -> unit
  (** {!on_dip_removed}, lazily: appends the DIP to [c]'s log, O(1)
      whatever the number of flows. A flow is only ever excused by the
      log of the counters that judged its first packet, so an engine
      that splits flows over several counters logs each retirement
      into every set whose flows it covers: a sharded replay into its
      own shard's, a network-wide replay — whose flows move between
      counters — into all of them, keeping every log the same length
      so a re-homed flow's [born] still means the same position. *)
end

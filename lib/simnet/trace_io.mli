(** Plain-text serialization of workload traces.

    The paper's evaluation replays production traces; an open-source
    release must let operators feed their own. The format is
    line-oriented and diff-friendly, one flow per line:

    {v flow <id> <src> <dst> <start> <duration> <bytes_per_sec> v}

    Endpoints use the [Netcore.Endpoint] syntax ([a.b.c.d:port] or
    [[v6]:port]); lines starting with [#] and blank lines are ignored.
    Floats are written with [%.17g], so save + load returns the exact
    flows. Parsing is strict: any malformed line fails with its line
    number, so a truncated trace cannot be half-loaded silently. A start,
    duration or rate that is negative or not finite ([inf], [nan]) is
    malformed: it would give a replay an infinite or undefined horizon.

    Update schedules have no format of their own: they are serve
    scripts ([Control.Protocol.of_updates]), replayed together with a
    flow trace by [silkroad_cli serve --script FILE --flows FILE]. *)

val flow_to_line : Flow.t -> string
[@@silkroad.allow "surface.unused-export: test_simnet round-trips single lines of the trace format"]
val flow_of_line : string -> (Flow.t, string) result
[@@silkroad.allow "surface.unused-export: test_simnet feeds the trace parser malformed and non-finite lines"]

val save_flows : string -> Flow.t list -> unit
(** Write a flow trace file (with a header comment). *)

val load_flows : string -> (Flow.t list, string) result
(** Errors are ["line N: reason"]. *)

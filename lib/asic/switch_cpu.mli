(** The switch management CPU as a rate-limited server.

    Entry insertion/deletion is the job of software on the embedded x86
    CPU connected to the ASIC over PCI-E (§4.1). The paper measures an
    achievable ConnTable insertion throughput of about 200K entries per
    second (§5.2). We model the CPU as a FIFO work-conserving server: a
    batch of [n] insertions submitted at time [t] completes at
    [max t backlog_free_time + n / rate].

    The gap between a connection's first packet and its insertion
    completion is the "pending connection" window that TransitTable must
    cover. *)

type t

val create : ?metrics:Telemetry.Registry.t -> insertions_per_sec:float -> unit -> t
(** [?metrics]: registry the CPU reports through — a [switch_cpu.work_items]
    counter, a [switch_cpu.backlog_seconds] gauge and a
    [switch_cpu.queue_delay] histogram of per-batch sojourn times
    (backlog wait + service). A private registry is used when omitted. *)

val submit : t -> now:float -> work_items:int -> float
(** Schedule [work_items] units of work; returns the absolute completion
    time. Work is served FIFO, so the completion time is monotone in
    submission order. *)

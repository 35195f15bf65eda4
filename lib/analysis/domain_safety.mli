(** Inter-procedural Domain-safety (race) analysis — [verify --races].

    The sharded replay path ({!Harness.Replay} with
    [Sharded {parallel = true}]) runs one {!Silkroad.Switch} per Domain,
    and network-wide replay ([Netwide.Replay.run ~parallel:true]) runs
    a segment's switches on a worker group of Domains; the serve-mode
    control plane ({!Control.Session}) mutates switches a
    replay may be stepping. Any {e module-toplevel} mutable value that
    code on those call paths touches is shared by every Domain and is a
    data race waiting for a schedule. PR 3's [det.domain-unsafe] lint
    flagged toplevel mutable {e definitions} in a fixed directory list —
    syntactic, per-file, and blind to calls. This analysis replaces it:
    it loads the compiler's typed trees ([.cmt] files), builds the call
    graph of every module-level binding, and walks it from the Domain
    entry points, reporting the mutable globals that are actually
    {e reachable} — inter-procedurally, across libraries, with a
    root-to-access witness chain on every finding.

    {2 Classification}

    A module-level [let] is a {e mutable global} when its right-hand
    side eagerly (outside [fun]/[function]/[lazy]) builds mutable state:
    applies a known allocator ([ref], [Hashtbl.create], [Array.make],
    [Bytes.create], [Buffer.create], [Queue.create], [Stack.create],
    [Random.State.make], [Telemetry.Registry.create], ...), writes a
    record literal with a [mutable] field, writes an array literal — or
    applies a function that (transitively) does one of those, resolved
    by a fixpoint over the call graph. Values built with an allowlisted
    synchronisation discipline ([Atomic.make], [Mutex.create],
    [Condition.create], [Semaphore.*], [Domain.DLS.new_key]) are
    {e synchronized} and reported as {e info}, not errors.

    {2 Rules}

    - [domain.shared-mutable] ({e error}): a mutable global reachable
      from a Domain entry point, with the reference chain.
    - [domain.synchronized] ({e info}): a synchronized global on the
      same paths — the surface a reviewer audits.
    - [domain.no-root] ({e warning}): a configured entry point matched
      no analyzed binding (the analysis is running blind; typically the
      root was renamed or its [.cmt] was not built).
    - [domain.no-cmt] ({e error}): no typed trees found at all.

    A file opts out with the same attribute Source_lint honours:
    [[@@@silkroad.allow "domain.shared-mutable"]] (file-wide; checked on
    both the defining and the accessing compilation unit). *)

type result = {
  diags : Diag.t list;
  bindings : int;  (** module-level bindings analyzed *)
  units : int;  (** compilation units loaded *)
  roots_matched : int;  (** bindings matching a root prefix *)
  reachable : int;  (** bindings reachable from the roots *)
  shared_mutable : int;  (** reachable mutable globals (errors) *)
  synchronized : int;  (** reachable synchronized globals (infos) *)
}

val analyze_impls : roots:string list -> (string * string) list -> result
[@@silkroad.allow "surface.unused-export: the race analysis's fixtures in test_verify are its subject"]
(** [analyze_impls [(unit_name, source); ...]] typechecks each source
    text in-process (against the standard library only — fixtures;
    cross-module tests use nested modules inside one unit) and analyzes
    the typed trees. [unit_name] may be dotted (["Harness.Replay"]) and
    prefixes every binding in that unit. Raises [Failure] on a fixture
    that does not parse or typecheck. *)

val analyze_root : root:string -> unit -> result
(** Analyze the built tree: loads every [.cmt] under [root/lib]
    (including the [.objs] directories dune hides), mangled unit names
    canonicalized ([Silkroad__Switch] → [Silkroad.Switch]). Requires a
    prior [dune build]; reports [domain.no-cmt] when nothing is found. *)

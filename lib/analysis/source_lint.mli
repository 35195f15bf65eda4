(** Determinism lint — the [det.*] rules of [silkroad-lint].

    The repo's headline reproducibility guarantee (chaos reports are
    byte-identical for a fixed seed, Table 2 numbers are frozen) only
    holds if no code path smuggles in ambient nondeterminism. This
    walks the untyped AST (compiler-libs) of every [.ml] file and
    reports:

    - [det.wall-clock] ({e error}): [Sys.time], [Unix.time],
      [Unix.gettimeofday] outside the allowlisted clock module —
      simulated time comes from the harness, wall time only from
      [Harness.Stopwatch].
    - [det.self-init] ({e error}): [Random.self_init] /
      [Random.State.make_self_init] — every PRNG must be seeded.
    - [det.poly-hash] ({e error}): [Hashtbl.hash] /
      [Hashtbl.seeded_hash] — polymorphic hashing varies across
      layouts; hash through explicit key functions.
    - [det.poly-compare] ({e error}): the {e polymorphic} [compare] /
      [Stdlib.compare] / [(=)] passed as a value (e.g. to
      [List.sort]) — it follows physical structure, not domain order;
      pass an explicit comparator. Fully applied uses
      ([compare a b = 0]) are not flagged.
    - [det.hashtbl-order] ({e warning}): a [Hashtbl.iter]/[fold]
      whose callback writes to a formatted sink ([Format]/[Printf]/
      [Buffer]/[print_*]) with no sort in its arguments — one write
      per entry, in seed-dependent table order, leaks into reports.
    The toplevel-mutable [det.domain-unsafe] rule that used to live
    here is subsumed by {!Domain_safety}, which finds shared mutable
    state {e inter-procedurally} from the actual Domain entry points
    instead of flagging definitions by directory.

    A file opts a rule out with a structure-level attribute, e.g.
    [[@@@silkroad.allow "det.wall-clock"]] (file-wide; the attribute
    is in the [silkroad.] namespace so the compiler ignores it). *)

val lint_string : ?file:string -> string -> Diag.t list
[@@silkroad.allow "surface.unused-export: the determinism lint's fixtures in test_analysis are its subject"]
(** Lint source text. [file] (default ["<string>"]) is used in
    locations. A syntax error yields a single [src.parse] error. *)

val lint_dirs : string list -> Diag.t list
(** Lint every [.ml] under the given directories (recursively,
    deterministic sorted order), skipping [_build], [.git] and
    hidden directories. *)

val default_dirs : root:string -> string list
(** [lib], [bin], [test], [bench] and [examples] under [root] — the
    full source surface the CI gate lints. Tests and benches matter too: a
    nondeterministic expectation (unsorted [Hashtbl] render, polymorphic
    comparator) makes a green run unreproducible. *)

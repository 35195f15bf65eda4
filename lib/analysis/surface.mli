(** The [surface.*] rules of [silkroad-lint]: no exported value, and
    no optional parameter of one, goes unused.

    Every [val] of every [lib/] interface, nested signatures such as
    [Harness.Replay.Stepper] included, and every top-level value of a
    [lib/] unit that has no interface (with those of its nested
    [module M = struct ... end]s), is checked against the references in
    the typed trees of every other unit under [lib/], [bin/],
    [bench/], [examples/], [perfbench/] and [test/]. A reference is any
    use of the value in an expression (a [let () = ...] body counts),
    after local module aliases ([module R = Telemetry.Registry]) are
    resolved; the typer has already resolved [open]. A module given
    whole to a functor, an [include] or a first-class [(module M)] uses
    all of its values.

    - [surface.unused-export] ({e error}): no other unit outside
      [test/] uses the value. Delete it, or leave it out of its unit's
      [.mli] (writing one if the unit has none) when that unit still
      uses it.
    - [surface.unused-export] ({e warning}): only [test/] uses it. It is
      not reported when the [val] carries
      [[@@silkroad.allow "surface.unused-export: <reason>"]], a
      non-empty reason saying why a test-only export should stay (for
      example, the test is its subject). An allow on a value the program
      uses is itself a warning, since it no longer says anything.
    - [surface.unused-option] ({e error}): an optional parameter of
      an exported value the program uses is passed by no other unit
      outside [test/]. It is passed at an application of the value when
      its argument sits at a real location: the typer fills an omitted
      [?l] of a total application with a ghost [None], while [~l:v],
      [?l:e] and an explicit [?l:None] are the caller's own. A partial
      application that leaves [?l] open, and a use of the value that
      does not apply it, count as passing it, since the rule does not
      follow values. A module used whole passes every option of its
      values. Delete the option, and the code only it reaches.
    - [surface.unused-option] ({e warning}): only [test/] passes it.
      [[@@silkroad.allow "surface.unused-option: <reason>"]] on the
      [val] keeps its test-only options; an allow on a value whose
      options the program all passes is itself a warning.
      Options of a value only tests use are [surface.unused-export]'s
      to judge, and members of a functor's result, such as
      [Asic.Cuckoo.Make]'s [create ?seed], are out of reach:
      the rule reads only plain nested signatures.
    - [surface.no-cmt] ({e error}): some source file under those
      directories has no typed tree. [dune build @all] writes none for
      executables, and without them everything the CLI and the benches
      use would look unused; build with [dune build @check] first. *)

type result = {
  diags : Diag.t list;
  units : int;  (** typed trees read *)
  exported : int;  (** exported values checked *)
  unused : int;  (** exported values no non-test unit uses (errors) *)
  test_only : int;  (** exported values only [test/] uses, not allowed (warnings) *)
  allowed : int;  (** test-only values whose allow gives a reason *)
  options : int;  (** optional parameters of the exported values the program uses *)
  opt_unused : int;  (** optional parameters no non-test unit passes (errors) *)
  opt_test_only : int;  (** optional parameters only [test/] passes, not allowed (warnings) *)
  opt_allowed : int;  (** test-only optional parameters whose allow gives a reason *)
}

val analyze_root : root:string -> result
(** Check the built tree of the checkout at [root] (see
    {!Typed_trees.build_root}). *)

val analyze_sources : (string * string * [ `Intf of string | `Impl of string ]) list -> result
[@@silkroad.allow "surface.unused-export: the rule's own fixtures in test_analysis are its subject"]
(** [analyze_sources [(dir, unit_name, source); ...]] typechecks
    in-memory units against the standard library and checks them as
    {!analyze_root} checks a tree. [dir] is the top directory the unit
    sits in (["lib"], ["bin"], ["test"], ...). Units are typechecked in
    order. An [`Intf] of a ["lib"] unit declares exports and is visible
    to the units after it under its [unit_name]. An [`Impl] is a unit
    whose references count; a ["lib"] one with no [`Intf] of its
    [unit_name] declares its top-level values as exports and is visible
    to the units after it. Raises [Failure] on a
    fixture that does not typecheck. *)

(** The compiler's typed trees, as the typed-tree rules read them.

    {!Domain_safety} ([verify --races]) and {!Surface}
    ([surface.unused-export] in [lint]) both load the [.cmt]/[.cmti]
    files dune writes, undo dune's library name mangling, honour the
    [silkroad.allow] attribute and typecheck in-memory fixtures. This is
    that shared code; {!Source_lint} reads its file-wide allows with
    {!allow_payload} too. *)

val canon_name : string -> string
(** Undo dune's library mangling in every dot-component:
    [Silkroad__Switch] → [Silkroad.Switch], [Silkroad__] → [Silkroad]. *)

val canon_path : Path.t -> string
(** [canon_name] of the path's printed name. *)

val build_root : root:string -> string
(** Where the typed trees of a checkout at [root] live: [root/_build/default]
    when it exists, else [root] itself (a run inside a dune sandbox). *)

val find : ext:string -> string -> string list
(** Every file ending in [ext] under a directory, recursively and in
    sorted order, including the hidden [.objs]/[.eobjs] directories dune
    writes typed trees to. [[]] when the directory does not exist. *)

val read : string -> Cmt_format.cmt_infos option
(** One [.cmt] or [.cmti]; [None] when it cannot be read. *)

val allow_payload : Parsetree.attribute -> string option
(** The string of a [[@silkroad.allow "..."]] attribute (any number of
    [@]s), [None] for any other attribute. *)

val fixture_env : unit -> Env.t
(** The standard library's environment, with warnings off and no files
    written, for typechecking fixtures. *)

val type_impl : Env.t -> unit_name:string -> string -> Typedtree.structure
(** Typecheck implementation text as [unit_name.ml]. Raises [Failure]
    with the compiler's report when it does not parse or typecheck. *)

val type_intf : Env.t -> unit_name:string -> string -> Typedtree.signature
(** The same for interface text, as [unit_name.mli]. *)

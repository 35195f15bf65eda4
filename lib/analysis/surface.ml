(* Unused exported surface over compiler-libs typed trees. See the .mli
   for the rules; the shape of the code:

     .cmti of every lib/ unit -> exports (qualified name, loc, optional
                                 parameters, allows); a lib/ unit
                                 without one exports every top-level
                                 value of its .cmt
     .cmt of every unit       -> the qualified names it references,
                                 module aliases resolved, the optional
                                 arguments it passes them, plus the
                                 modules it uses whole
     judge                    -> per export, which other units use it;
                                 per optional parameter of a used
                                 export, which other units pass it *)

let rule = "surface.unused-export"
let option_rule = "surface.unused-option"

let dirs = [ "lib"; "bin"; "bench"; "examples"; "perfbench"; "test" ]

type export = {
  e_name : string;  (** canonical qualified name, e.g. [Harness.Replay.Stepper.create] *)
  e_unit : string;
  e_loc : Diag.location;
  e_options : string list;  (** labels of its optional parameters *)
  e_allows : string list;  (** the payloads of the [val]'s allows *)
}

type refs = {
  r_unit : string;
  r_file : string;  (** for messages *)
  r_test : bool;
  r_values : (string, unit) Hashtbl.t;
  r_passed : (string * string, unit) Hashtbl.t;  (** (value, label) of each optional argument passed *)
  r_whole : string list;  (** modules used whole: functor arguments, includes, packs *)
}

type result = {
  diags : Diag.t list;
  units : int;
  exported : int;
  unused : int;
  test_only : int;
  allowed : int;
  options : int;
  opt_unused : int;
  opt_test_only : int;
  opt_allowed : int;
}

let loc_of (l : Location.t) =
  let p = l.Location.loc_start in
  { Diag.file = p.Lexing.pos_fname; line = p.Lexing.pos_lnum; col = p.Lexing.pos_cnum - p.Lexing.pos_bol }

(* ----- exports ----- *)

(* the labels of the optional parameters of a function type, in order *)
let rec optional_labels ty =
  match Types.get_desc ty with
  | Types.Tarrow (Asttypes.Optional l, _, ret, _) -> l :: optional_labels ret
  | Types.Tarrow (_, _, ret, _) -> optional_labels ret
  | Types.Tpoly (ty, _) -> optional_labels ty
  | _ -> []

let export ~unit_name ~prefix name loc ty attributes =
  {
    e_name = prefix ^ "." ^ name;
    e_unit = unit_name;
    e_loc = loc_of loc;
    e_options = optional_labels ty;
    e_allows = List.filter_map Typed_trees.allow_payload attributes;
  }

let rec exports_of ~unit_name ~prefix (sg : Typedtree.signature) acc =
  List.fold_left
    (fun acc (item : Typedtree.signature_item) ->
      match item.Typedtree.sig_desc with
      | Typedtree.Tsig_value vd ->
        export ~unit_name ~prefix vd.Typedtree.val_name.Location.txt vd.Typedtree.val_loc
          vd.Typedtree.val_desc.Typedtree.ctyp_type vd.Typedtree.val_attributes
        :: acc
      | Typedtree.Tsig_module
          {
            Typedtree.md_name = { Location.txt = Some name; _ };
            md_type = { Typedtree.mty_desc = Typedtree.Tmty_signature sg; _ };
            _;
          } ->
        exports_of ~unit_name ~prefix:(prefix ^ "." ^ name) sg acc
      | _ -> acc)
    acc sg.Typedtree.sig_items

(* the same for a unit without an interface: every value its top level
   binds, and those of its [module M = struct ... end]s *)
let rec impl_exports_of ~unit_name ~prefix (str : Typedtree.structure) acc =
  List.fold_left
    (fun acc (item : Typedtree.structure_item) ->
      match item.Typedtree.str_desc with
      | Typedtree.Tstr_value (_, vbs) ->
        List.fold_left
          (fun acc (vb : Typedtree.value_binding) ->
            List.fold_left
              (fun acc (_, (name : string Location.loc), ty) ->
                export ~unit_name ~prefix name.Location.txt name.Location.loc ty
                  vb.Typedtree.vb_attributes
                :: acc)
              acc
              (Typedtree.pat_bound_idents_full vb.Typedtree.vb_pat))
          acc vbs
      | Typedtree.Tstr_module
          {
            Typedtree.mb_name = { Location.txt = Some name; _ };
            mb_expr = { Typedtree.mod_desc = Typedtree.Tmod_structure str; _ };
            _;
          } ->
        impl_exports_of ~unit_name ~prefix:(prefix ^ "." ^ name) str acc
      | _ -> acc)
    acc str.Typedtree.str_items

(* ----- references ----- *)

let rec module_ident (me : Typedtree.module_expr) =
  match me.Typedtree.mod_desc with
  | Typedtree.Tmod_ident (p, _) -> Some p
  | Typedtree.Tmod_constraint (me, _, _, _) -> module_ident me
  | _ -> None

let refs_of ~unit_name ~file ~test (str : Typedtree.structure) =
  let aliases = Hashtbl.create 16 in
  let rec resolve (p : Path.t) =
    match p with
    | Path.Pident id -> (
      match Hashtbl.find_opt aliases (Ident.unique_name id) with
      | Some q -> q
      | None -> Typed_trees.canon_name (Ident.name id))
    | Path.Pdot (p, s) -> resolve p ^ "." ^ s
    | Path.Papply _ | Path.Pextra_ty _ -> Typed_trees.canon_path p
  in
  let alias id me =
    match (id, module_ident me) with
    | Some id, Some p -> Hashtbl.replace aliases (Ident.unique_name id) (resolve p)
    | _ -> ()
  in
  let values = Hashtbl.create 256 in
  let passed = Hashtbl.create 64 in
  let whole = ref [] in
  let use_whole me = match module_ident me with Some p -> whole := resolve p :: !whole | None -> () in
  let pass name l = Hashtbl.replace passed (name, l) () in
  (* A value used as a value, not applied, may get any of its options
     where it flows, as may one applied partially with an option still
     open (its argument [None], or absent): both count as passing. An
     option the application closes is passed when its argument sits at
     a real location; the typer fills an omitted one with a ghost
     [None]. *)
  let applied name (fn : Typedtree.expression) args =
    List.iter
      (fun l ->
        match List.assoc_opt (Asttypes.Optional l) args with
        | Some (Some (a : Typedtree.expression)) when a.Typedtree.exp_loc.Location.loc_ghost -> ()
        | _ -> pass name l)
      (optional_labels fn.Typedtree.exp_type)
  in
  let open Tast_iterator in
  let it =
    {
      default_iterator with
      expr =
        (fun sub e ->
          match e.Typedtree.exp_desc with
          | Typedtree.Texp_apply (({ Typedtree.exp_desc = Typedtree.Texp_ident (p, _, _); _ } as fn), args)
            ->
            let name = resolve p in
            Hashtbl.replace values name ();
            applied name fn args;
            List.iter (fun (_, a) -> Option.iter (sub.expr sub) a) args
          | Typedtree.Texp_ident (p, _, _) ->
            let name = resolve p in
            Hashtbl.replace values name ();
            List.iter (pass name) (optional_labels e.Typedtree.exp_type)
          | Typedtree.Texp_letmodule (id, _, _, me, _) ->
            alias id me;
            default_iterator.expr sub e
          | Typedtree.Texp_pack me ->
            use_whole me;
            default_iterator.expr sub e
          | _ -> default_iterator.expr sub e);
      module_binding =
        (fun sub mb ->
          alias mb.Typedtree.mb_id mb.Typedtree.mb_expr;
          default_iterator.module_binding sub mb);
      module_expr =
        (fun sub me ->
          (match me.Typedtree.mod_desc with
           | Typedtree.Tmod_apply (_, arg, _) -> use_whole arg
           | _ -> ());
          default_iterator.module_expr sub me);
      structure_item =
        (fun sub item ->
          (match item.Typedtree.str_desc with
           | Typedtree.Tstr_include incl -> use_whole incl.Typedtree.incl_mod
           | _ -> ());
          default_iterator.structure_item sub item);
    }
  in
  it.structure it str;
  { r_unit = unit_name; r_file = file; r_test = test; r_values = values; r_passed = passed; r_whole = !whole }

(* ----- judging ----- *)

(* the reason of the first "<rule>: <reason>" allow with a non-empty one *)
let allow_reason ~rule allows =
  let prefix = rule ^ ":" in
  let n = String.length prefix in
  List.find_map
    (fun payload ->
      if not (String.starts_with ~prefix payload) then None
      else
        match String.trim (String.sub payload n (String.length payload - n)) with
        | "" -> None
        | reason -> Some reason)
    allows

let judge ~units exports refs =
  let whole_by e r = List.exists (fun m -> String.starts_with ~prefix:(m ^ ".") e.e_name) r.r_whole in
  let others e p = List.filter (fun r -> r.r_unit <> e.e_unit && (p r || whole_by e r)) refs in
  let files users = String.concat ", " (List.sort_uniq String.compare (List.map (fun r -> r.r_file) users)) in
  (* what the units that use (or pass) something make of it *)
  let verdict users reason =
    if List.exists (fun r -> not r.r_test) users then `Program
    else match (users, reason) with [], _ -> `Unused | _, Some _ -> `Allowed | _, None -> `Test_only
  in
  let diags = ref [] and unused = ref 0 and test_only = ref 0 and allowed = ref 0 in
  let options = ref 0 and opt_unused = ref 0 and opt_test_only = ref 0 and opt_allowed = ref 0 in
  let report e ~rule severity message hint =
    diags := Diag.v ~loc:e.e_loc ~rule ~severity ~hint message :: !diags
  in
  let allow_hint rule =
    Printf.sprintf "say why it stays: [@@silkroad.allow \"%s: <reason>\"]" rule
  in
  let judge_options e =
    let reason = allow_reason ~rule:option_rule e.e_allows in
    let verdicts =
      List.map
        (fun l ->
          let passers = others e (fun r -> Hashtbl.mem r.r_passed (e.e_name, l)) in
          let v = verdict passers reason in
          incr options;
          (match v with
           | `Program -> ()
           | `Unused ->
             incr opt_unused;
             report e ~rule:option_rule Diag.Error
               (Printf.sprintf "?%s of %s is never passed by another unit" l e.e_name)
               "delete the option, and the code only it reaches"
           | `Allowed -> incr opt_allowed
           | `Test_only ->
             incr opt_test_only;
             report e ~rule:option_rule Diag.Warning
               (Printf.sprintf "?%s of %s is passed only by test/ (%s)" l e.e_name (files passers))
               ("test through what the program passes, delete it with its test, or "
               ^ allow_hint option_rule));
          v)
        e.e_options
    in
    if reason <> None && List.for_all (fun v -> v = `Program) verdicts then
      report e ~rule:option_rule Diag.Warning
        (Printf.sprintf "%s carries a %s allow, but the program passes all its options" e.e_name
           option_rule)
        "drop the allow"
  in
  List.iter
    (fun e ->
      let users = others e (fun r -> Hashtbl.mem r.r_values e.e_name) in
      let reason = allow_reason ~rule e.e_allows in
      match verdict users reason with
      | `Program ->
        if reason <> None then
          report e ~rule Diag.Warning
            (Printf.sprintf "%s carries a %s allow, but the program uses it" e.e_name rule)
            "drop the allow";
        judge_options e
      | `Unused ->
        incr unused;
        report e ~rule Diag.Error
          (Printf.sprintf "%s is exported, but no other unit uses it" e.e_name)
          "delete it, or leave it out of its unit's .mli (adding one if needed)"
      | `Allowed -> incr allowed
      | `Test_only ->
        incr test_only;
        report e ~rule Diag.Warning
          (Printf.sprintf "%s is exported, but only test/ uses it (%s)" e.e_name (files users))
          ("test it through what the program uses, delete it with its test, or " ^ allow_hint rule))
    exports;
  {
    diags = List.sort Diag.compare !diags;
    units;
    exported = List.length exports;
    unused = !unused;
    test_only = !test_only;
    allowed = !allowed;
    options = !options;
    opt_unused = !opt_unused;
    opt_test_only = !opt_test_only;
    opt_allowed = !opt_allowed;
  }

(* ----- front ends ----- *)

let analyze_sources units =
  let has_intf name = List.exists (function _, n, `Intf _ -> n = name | _ -> false) units in
  let visible env unit_name sg =
    Env.add_module (Ident.create_local unit_name) Types.Mp_present (Types.Mty_signature sg) env
  in
  let _, exports, refs =
    List.fold_left
      (fun (env, exports, refs) (dir, unit_name, source) ->
        match source with
        | `Intf src ->
          let sg = Typed_trees.type_intf env ~unit_name src in
          ( visible env unit_name sg.Typedtree.sig_type,
            (if dir = "lib" then exports_of ~unit_name ~prefix:unit_name sg exports else exports),
            refs )
        | `Impl src ->
          let str = Typed_trees.type_impl env ~unit_name src in
          let file = Filename.concat dir (String.uncapitalize_ascii unit_name ^ ".ml") in
          let refs = refs_of ~unit_name ~file ~test:(dir = "test") str :: refs in
          if dir = "lib" && not (has_intf unit_name) then
            ( visible env unit_name str.Typedtree.str_type,
              impl_exports_of ~unit_name ~prefix:unit_name str exports,
              refs )
          else (env, exports, refs))
      (Typed_trees.fixture_env (), [], [])
      units
  in
  judge ~units:(List.length units) (List.rev exports) (List.rev refs)

(* every .ml (and, under lib/, .mli) a typed tree should exist for, as
   paths relative to the build root, the form cmt_sourcefile records *)
let rec sources ~built ~intf rel =
  match Sys.readdir (Filename.concat built rel) with
  | exception Sys_error _ -> []
  | entries ->
    Array.sort String.compare entries;
    List.concat_map
      (fun e ->
        let r = Filename.concat rel e in
        if e.[0] = '.' || e = "_build" then []
        else if Sys.is_directory (Filename.concat built r) then sources ~built ~intf r
        else if Filename.check_suffix e ".ml" || (intf && Filename.check_suffix e ".mli") then [ r ]
        else [])
      (Array.to_list entries)

let analyze_root ~root =
  let built = Typed_trees.build_root ~root in
  let trees =
    List.concat_map
      (fun dir ->
        List.filter_map
          (fun path -> Option.map (fun cmt -> (dir, cmt)) (Typed_trees.read path))
          (Typed_trees.find ~ext:".cmt" (Filename.concat built dir)
          @ Typed_trees.find ~ext:".cmti" (Filename.concat built dir)))
      dirs
  in
  let have = Hashtbl.create 256 in
  List.iter
    (fun (_, cmt) ->
      Option.iter (fun f -> Hashtbl.replace have f ()) cmt.Cmt_format.cmt_sourcefile)
    trees;
  let missing =
    List.filter (fun f -> not (Hashtbl.mem have f)) (List.concat_map (fun d -> sources ~built ~intf:(d = "lib") d) dirs)
  in
  if missing <> [] || trees = [] then
    {
      diags =
        [
          Diag.v ~rule:"surface.no-cmt" ~severity:Diag.Error
            ~hint:"run `dune build @check` first; `dune build @all` writes no .cmt for executables"
            (Printf.sprintf "%d source file(s) under %s have no typed tree%s" (List.length missing)
               built
               (match missing with [] -> "" | f :: _ -> Printf.sprintf ", e.g. %s" f));
        ];
      units = List.length trees;
      exported = 0;
      unused = 0;
      test_only = 0;
      allowed = 0;
      options = 0;
      opt_unused = 0;
      opt_test_only = 0;
      opt_allowed = 0;
    }
  else
    let unit_name cmt = Typed_trees.canon_name cmt.Cmt_format.cmt_modname in
    let intfs = Hashtbl.create 256 in
    List.iter
      (fun (dir, cmt) ->
        match cmt.Cmt_format.cmt_annots with
        | Cmt_format.Interface _ when dir = "lib" -> Hashtbl.replace intfs (unit_name cmt) ()
        | _ -> ())
      trees;
    let exports, refs =
      List.fold_left
        (fun (exports, refs) (dir, cmt) ->
          let unit_name = unit_name cmt in
          match cmt.Cmt_format.cmt_annots with
          | Cmt_format.Interface sg when dir = "lib" ->
            (exports_of ~unit_name ~prefix:unit_name sg exports, refs)
          | Cmt_format.Implementation str ->
            let file = Option.value cmt.Cmt_format.cmt_sourcefile ~default:unit_name in
            let exports =
              if dir = "lib" && not (Hashtbl.mem intfs unit_name) then
                impl_exports_of ~unit_name ~prefix:unit_name str exports
              else exports
            in
            (exports, refs_of ~unit_name ~file ~test:(dir = "test") str :: refs)
          | _ -> (exports, refs))
        ([], []) trees
    in
    judge ~units:(List.length trees) (List.rev exports) (List.rev refs)

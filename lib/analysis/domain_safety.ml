(* Inter-procedural Domain-safety analysis over compiler-libs typed
   trees. See the .mli for the model; the shape of the code:

     load .cmt / typecheck fixture source
       -> collect  : one node per module-level binding
                     (refs with site locations, eager allocator calls,
                      eager applications, allocator-anywhere flag)
       -> fixpoint : propagate "calling this allocates mutable state"
                     through the call graph, then classify plain value
                     bindings that eagerly apply such functions
       -> BFS      : from root-matching bindings, parent pointers give
                     the witness chain; emit diags at the access site *)

let default_roots =
  [
    "Harness.Replay.Stepper";
    "Control.Session";
    "Silkroad.Switch.process_flow";
    "Netwide.Replay.run";
  ]

(* ----- names ----- *)

let canon_path = Typed_trees.canon_path

let strip_stdlib s =
  if String.length s > 7 && String.sub s 0 7 = "Stdlib." then String.sub s 7 (String.length s - 7)
  else s

let unsafe_makers =
  [
    "ref";
    "Hashtbl.create"; "Hashtbl.copy"; "Hashtbl.of_seq";
    "Array.make"; "Array.create_float"; "Array.init"; "Array.make_matrix";
    "Array.copy"; "Array.of_list"; "Array.of_seq"; "Array.sub"; "Array.append"; "Array.concat";
    "Bytes.create"; "Bytes.make"; "Bytes.init"; "Bytes.of_string"; "Bytes.copy";
    "Buffer.create"; "Queue.create"; "Queue.copy"; "Stack.create";
    "Random.State.make"; "Random.State.copy";
    "Telemetry.Registry.create";
  ]

let safe_makers =
  [
    "Atomic.make";
    "Mutex.create";
    "Condition.create";
    "Semaphore.Counting.make";
    "Semaphore.Binary.make";
    "Domain.DLS.new_key";
  ]

let is_unsafe_maker n = List.mem (strip_stdlib n) unsafe_makers
let is_safe_maker n = List.mem (strip_stdlib n) safe_makers

(* ----- nodes ----- *)

type storage =
  | Fn  (** binding whose RHS is syntactically a function *)
  | Mutable of string  (** eagerly builds mutable state (the allocator) *)
  | Synchronized of string
  | Plain

type node = {
  qname : string;
  unit_name : string;  (** canonical unit the binding lives in *)
  file : string;
  def_loc : Diag.location;
  mutable storage : storage;
  refs : (string * string list * Diag.location) list;
      (** (raw name, enclosing prefixes innermost-first, site) *)
  eager_applies : string list;  (** raw names applied outside fun/lazy *)
  prefixes : string list;  (** enclosing prefixes for resolving applies *)
  maker_anywhere : bool;  (** allocator call at any depth of the RHS *)
}

type unit_acc = {
  u_name : string;
  u_file : string;
  mutable u_allow : string list;
  mutable u_nodes : node list;
}

let loc_of (l : Location.t) =
  {
    Diag.file = l.Location.loc_start.Lexing.pos_fname;
    line = l.Location.loc_start.Lexing.pos_lnum;
    col = l.Location.loc_start.Lexing.pos_cnum - l.Location.loc_start.Lexing.pos_bol;
  }

let fix_file file (l : Diag.location) = if l.Diag.file = "" then { l with Diag.file = file } else l

(* ----- collecting one binding's RHS ----- *)

type rhs_info = {
  mutable i_refs : (string * string list * Diag.location) list;
  mutable i_eager_makers : (string * Diag.location) list;
  mutable i_eager_safe : string list;
  mutable i_eager_applies : string list;
  mutable i_maker_anywhere : bool;
}

let scan_rhs ~file ~prefixes ~scopes (expr : Typedtree.expression) =
  let info =
    { i_refs = []; i_eager_makers = []; i_eager_safe = []; i_eager_applies = [];
      i_maker_anywhere = false }
  in
  let depth = ref 0 in
  let add_ref name loc =
    let resolved =
      if String.contains name '.' then name
      else match Hashtbl.find_opt scopes name with Some q -> q | None -> name
    in
    info.i_refs <- (resolved, prefixes, fix_file file (loc_of loc)) :: info.i_refs
  in
  let record_maker name loc =
    info.i_maker_anywhere <- true;
    if !depth = 0 then info.i_eager_makers <- (name, fix_file file (loc_of loc)) :: info.i_eager_makers
  in
  let rec iter =
    let open Tast_iterator in
    {
      default_iterator with
      expr =
        (fun sub e ->
          match e.Typedtree.exp_desc with
          | Typedtree.Texp_ident (path, lid, _) ->
            add_ref (canon_path path) lid.Location.loc
          | Typedtree.Texp_function _ | Typedtree.Texp_lazy _ ->
            incr depth;
            default_iterator.expr sub e;
            decr depth
          | Typedtree.Texp_apply ({ Typedtree.exp_desc = Typedtree.Texp_ident (path, lid, _); _ }, args)
            when List.exists (function _, Some _ -> true | _ -> false) args ->
            let name = canon_path path in
            if is_unsafe_maker name then record_maker name lid.Location.loc
            else if is_safe_maker name then begin
              if !depth = 0 then info.i_eager_safe <- name :: info.i_eager_safe
            end
            else if !depth = 0 then info.i_eager_applies <- name :: info.i_eager_applies;
            add_ref name lid.Location.loc;
            List.iter (function _, Some a -> iter.expr iter a | _ -> ()) args
          | Typedtree.Texp_record { fields; _ }
            when Array.exists
                   (fun (ld, _) -> ld.Types.lbl_mut = Asttypes.Mutable)
                   fields ->
            record_maker "{mutable}" e.Typedtree.exp_loc;
            default_iterator.expr sub e
          | Typedtree.Texp_array _ ->
            record_maker "[|...|]" e.Typedtree.exp_loc;
            default_iterator.expr sub e
          | _ -> default_iterator.expr sub e);
    }
  in
  iter.Tast_iterator.expr iter expr;
  info

let is_function (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with Typedtree.Texp_function _ -> true | _ -> false

(* ----- walking a unit's structure ----- *)

let rec walk_structure acc ~prefixes ~scopes (str : Typedtree.structure) =
  List.iter (walk_item acc ~prefixes ~scopes) str.Typedtree.str_items

and walk_item acc ~prefixes ~scopes (item : Typedtree.structure_item) =
  match item.Typedtree.str_desc with
  | Typedtree.Tstr_value (_, vbs) ->
    List.iter
      (fun (vb : Typedtree.value_binding) ->
        match vb.Typedtree.vb_pat.Typedtree.pat_desc with
        (* [let x = e] is Tpat_var; [let x : t = e] comes back as
           Tpat_alias over the constrained pattern *)
        | Typedtree.Tpat_var (_, name) | Typedtree.Tpat_alias (_, _, name) ->
          let base = name.Location.txt in
          let qname = List.hd prefixes ^ "." ^ base in
          Hashtbl.replace scopes base qname;
          let info = scan_rhs ~file:acc.u_file ~prefixes ~scopes vb.Typedtree.vb_expr in
          let fn = is_function vb.Typedtree.vb_expr in
          let storage =
            if fn then Fn
            else
              match info.i_eager_makers with
              | (mk, _) :: _ -> Mutable mk
              | [] -> if info.i_eager_safe <> [] then Synchronized (List.hd info.i_eager_safe) else Plain
          in
          acc.u_nodes <-
            {
              qname;
              unit_name = acc.u_name;
              file = acc.u_file;
              def_loc = fix_file acc.u_file (loc_of vb.Typedtree.vb_loc);
              storage;
              refs = info.i_refs;
              eager_applies = info.i_eager_applies;
              prefixes;
              maker_anywhere = info.i_maker_anywhere;
            }
            :: acc.u_nodes
        | _ -> ())
      vbs
  | Typedtree.Tstr_module mb -> walk_module_binding acc ~prefixes ~scopes mb
  | Typedtree.Tstr_recmodule mbs -> List.iter (walk_module_binding acc ~prefixes ~scopes) mbs
  | Typedtree.Tstr_include incl -> walk_module_expr acc ~prefixes ~scopes incl.Typedtree.incl_mod
  | Typedtree.Tstr_attribute attr -> (
    match Typed_trees.allow_payload attr with Some r -> acc.u_allow <- r :: acc.u_allow | None -> ())
  | _ -> ()

and walk_module_binding acc ~prefixes ~scopes (mb : Typedtree.module_binding) =
  match mb.Typedtree.mb_name.Location.txt with
  | None -> ()
  | Some name ->
    let prefixes = (List.hd prefixes ^ "." ^ name) :: prefixes in
    walk_module_expr acc ~prefixes ~scopes mb.Typedtree.mb_expr

and walk_module_expr acc ~prefixes ~scopes (me : Typedtree.module_expr) =
  match me.Typedtree.mod_desc with
  | Typedtree.Tmod_structure str ->
    (* nested scope: copy so inner bindings do not leak outward, but
       outer bindings stay visible inside *)
    walk_structure acc ~prefixes ~scopes:(Hashtbl.copy scopes) str
  | Typedtree.Tmod_constraint (me, _, _, _) -> walk_module_expr acc ~prefixes ~scopes me
  | _ -> ()

let walk_unit ~unit_name ~file (str : Typedtree.structure) =
  let acc = { u_name = unit_name; u_file = file; u_allow = []; u_nodes = [] } in
  walk_structure acc ~prefixes:[ unit_name ] ~scopes:(Hashtbl.create 64) str;
  acc.u_nodes <- List.rev acc.u_nodes;
  acc

(* ----- the graph ----- *)

let resolve_ref graph (name, prefixes, _loc) =
  if Hashtbl.mem graph name then Some name
  else
    List.find_map
      (fun p ->
        let q = p ^ "." ^ name in
        if Hashtbl.mem graph q then Some q else None)
      prefixes

type result = {
  diags : Diag.t list;
  bindings : int;
  units : int;
  roots_matched : int;
  reachable : int;
  shared_mutable : int;
  synchronized : int;
}

let matches_root qname root =
  qname = root
  || String.length qname > String.length root
     && String.sub qname 0 (String.length root + 1) = root ^ "."

let analyze ~roots (units : unit_acc list) =
  let graph : (string, node) Hashtbl.t = Hashtbl.create 512 in
  let allow_of_unit : (string, string list) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun u ->
      Hashtbl.replace allow_of_unit u.u_name u.u_allow;
      List.iter (fun n -> Hashtbl.replace graph n.qname n) u.u_nodes)
    units;
  let bindings = Hashtbl.length graph in
  (* fixpoint: "applying this binding allocates mutable state" *)
  let allocates : (string, bool) Hashtbl.t = Hashtbl.create 512 in
  let rec allocates_q stack q =
    match Hashtbl.find_opt allocates q with
    | Some b -> b
    | None ->
      if List.mem q stack then false
      else (
        match Hashtbl.find_opt graph q with
        | None -> false
        | Some n ->
          let b =
            n.maker_anywhere
            || List.exists
                 (fun r ->
                   match resolve_ref graph r with
                   | Some q' when q' <> q -> allocates_q (q :: stack) q'
                   | Some _ | None -> false)
                 n.refs
          in
          Hashtbl.replace allocates q b;
          b)
  in
  Hashtbl.iter (fun q _ -> ignore (allocates_q [] q)) graph;
  (* plain value bindings that eagerly apply an allocating function *)
  Hashtbl.iter
    (fun _ n ->
      match n.storage with
      | Plain ->
        let hit =
          List.find_map
            (fun name ->
              match resolve_ref graph (name, n.prefixes, n.def_loc) with
              | Some q when allocates_q [] q -> Some q
              | Some _ | None -> None)
            n.eager_applies
        in
        (match hit with Some q -> n.storage <- Mutable (q ^ " ()") | None -> ())
      | Fn | Mutable _ | Synchronized _ -> ())
    graph;
  (* BFS from the roots *)
  let root_nodes =
    Hashtbl.fold
      (fun q n acc -> if List.exists (matches_root q) roots then (q, n) :: acc else acc)
      graph []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let parent : (string, string option * Diag.location option) Hashtbl.t = Hashtbl.create 512 in
  let order = Queue.create () in
  List.iter
    (fun (q, _) ->
      if not (Hashtbl.mem parent q) then begin
        Hashtbl.replace parent q (None, None);
        Queue.add q order
      end)
    root_nodes;
  let reachable = ref [] in
  let rec drain () =
    match Queue.take_opt order with
    | None -> ()
    | Some q ->
      reachable := q :: !reachable;
      let n = Hashtbl.find graph q in
      List.iter
        (fun ((_, _, loc) as r) ->
          match resolve_ref graph r with
          | Some q' when not (Hashtbl.mem parent q') ->
            Hashtbl.replace parent q' (Some q, Some loc);
            Queue.add q' order
          | Some _ | None -> ())
        (List.rev n.refs);
      drain ()
  in
  drain ();
  let chain_of q =
    let rec go q acc =
      match Hashtbl.find_opt parent q with
      | Some (Some p, _) -> go p (q :: acc)
      | Some (None, _) | None -> q :: acc
    in
    go q []
  in
  let short q =
    match String.rindex_opt q '.' with
    | Some i -> String.sub q (i + 1) (String.length q - i - 1)
    | None -> q
  in
  let allowed rule n accessor_unit =
    let has u = match Hashtbl.find_opt allow_of_unit u with Some l -> List.mem rule l | None -> false in
    has n.unit_name || has accessor_unit
  in
  let diags = ref [] in
  let shared = ref 0 and sync = ref 0 in
  List.iter
    (fun q ->
      let n = Hashtbl.find graph q in
      let report rule severity what hint =
        let chain = chain_of q in
        let accessor =
          match Hashtbl.find_opt parent q with
          | Some (Some p, _) -> (Hashtbl.find graph p).unit_name
          | Some (None, _) | None -> n.unit_name
        in
        if not (allowed rule n accessor) then begin
          (match rule with
           | "domain.shared-mutable" -> incr shared
           | _ -> incr sync);
          let loc =
            match Hashtbl.find_opt parent q with
            | Some (_, Some l) -> l
            | Some (_, None) | None -> n.def_loc
          in
          diags :=
            Diag.v ~loc ~rule ~severity ?hint
              (Printf.sprintf "%s: %s (%s) reachable from Domain entry %s via %s" what q
                 (match n.storage with
                  | Mutable mk | Synchronized mk -> mk
                  | Fn | Plain -> "?")
                 (List.hd chain)
                 (String.concat " -> " (List.map short chain)))
            :: !diags
        end
      in
      match n.storage with
      | Mutable _ ->
        report "domain.shared-mutable" Diag.Error "shared mutable state"
          (Some
             "make it shard-local, guard it with Atomic/Mutex/Domain.DLS, or opt the file out \
              with [@@@silkroad.allow \"domain.shared-mutable\"]")
      | Synchronized _ ->
        report "domain.synchronized" Diag.Info "synchronized shared state" None
      | Fn | Plain -> ())
    (List.rev !reachable);
  List.iter
    (fun root ->
      if not (List.exists (fun (q, _) -> matches_root q root) root_nodes) then
        diags :=
          Diag.v ~rule:"domain.no-root" ~severity:Diag.Warning
            ~hint:"update Domain_safety.default_roots or build the library that defines it"
            (Printf.sprintf "Domain entry point %s matched no analyzed binding" root)
          :: !diags)
    roots;
  {
    diags = List.sort Diag.compare !diags;
    bindings;
    units = List.length units;
    roots_matched = List.length root_nodes;
    reachable = List.length !reachable;
    shared_mutable = !shared;
    synchronized = !sync;
  }

(* ----- front ends ----- *)

let analyze_impls ~roots sources =
  let env = Typed_trees.fixture_env () in
  let units =
    List.map
      (fun (unit_name, source) ->
        let str = Typed_trees.type_impl env ~unit_name source in
        walk_unit ~unit_name ~file:(unit_name ^ ".ml") str)
      sources
  in
  analyze ~roots units

let load_cmt path =
  match Typed_trees.read path with
  | None -> None
  | Some cmt -> (
    match cmt.Cmt_format.cmt_annots with
    | Cmt_format.Implementation str ->
      let unit_name = Typed_trees.canon_name cmt.Cmt_format.cmt_modname in
      let file =
        match cmt.Cmt_format.cmt_sourcefile with Some f -> f | None -> path
      in
      Some (walk_unit ~unit_name ~file str)
    | _ -> None)

let analyze_root ~root () =
  let built = Typed_trees.build_root ~root in
  let lib = Filename.concat built "lib" in
  let cmts = Typed_trees.find ~ext:".cmt" (if Sys.file_exists lib then lib else built) in
  let units = List.filter_map load_cmt cmts in
  if units = [] then
    {
      diags =
        [
          Diag.v ~rule:"domain.no-cmt" ~severity:Diag.Error
            ~hint:"run `dune build` first; the analysis reads _build/**/*.cmt"
            (Printf.sprintf "no .cmt typed trees found under %s" root);
        ];
      bindings = 0;
      units = 0;
      roots_matched = 0;
      reachable = 0;
      shared_mutable = 0;
      synchronized = 0;
    }
  else analyze ~roots:default_roots units

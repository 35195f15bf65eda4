open Parsetree

let loc_of (l : Location.t) =
  let p = l.Location.loc_start in
  { Diag.file = p.Lexing.pos_fname; line = p.Lexing.pos_lnum; col = p.Lexing.pos_cnum - p.Lexing.pos_bol }

let path_of lid = try String.concat "." (Longident.flatten lid) with _ -> ""

(* [@@@silkroad.allow "rule"] anywhere in the file suppresses the rule
   file-wide *)
let allowed_rules str =
  let allowed = ref [] in
  let attribute _ a = Option.iter (fun s -> allowed := s :: !allowed) (Typed_trees.allow_payload a) in
  let it = { Ast_iterator.default_iterator with attribute } in
  it.Ast_iterator.structure it str;
  !allowed

let wall_clock = [ "Sys.time"; "Stdlib.Sys.time"; "Unix.time"; "Unix.gettimeofday" ]
let self_init = [ "Random.self_init"; "Random.State.make_self_init"; "Stdlib.Random.self_init" ]
let poly_hash =
  [ "Hashtbl.hash"; "Hashtbl.seeded_hash"; "Stdlib.Hashtbl.hash"; "Stdlib.Hashtbl.seeded_hash" ]
let poly_compare = [ "compare"; "Stdlib.compare"; "="; "<>" ]

let sinks =
  [ "Format.fprintf"; "Format.printf"; "Format.eprintf"; "Format.asprintf"; "Format.kasprintf";
    "Format.sprintf"; "Printf.printf"; "Printf.sprintf"; "Printf.eprintf"; "Printf.fprintf";
    "Buffer.add_string"; "Buffer.add_char"; "output_string"; "print_string"; "print_endline" ]

let sorts = [ "List.sort"; "List.stable_sort"; "List.fast_sort"; "List.sort_uniq"; "Array.sort" ]

let hashtbl_iters p =
  (* any [X.Hashtbl.iter]-shaped path, including plain [Hashtbl.iter] *)
  List.exists
    (fun suffix -> p = "Hashtbl" ^ suffix || Filename.check_suffix p (".Hashtbl" ^ suffix))
    [ ".iter"; ".fold" ]

let lint_structure ~file str =
  let diags = ref [] in
  let add ~loc rule severity msg hint =
    diags := Diag.v ~loc:(loc_of loc) ~hint ~rule ~severity msg :: !diags
  in
  ignore file;
  (* does a sink/sort identifier occur anywhere under [e]? *)
  let scan_for idents e =
    let found = ref false in
    let expr it x =
      (match x.pexp_desc with
       | Pexp_ident { txt; _ } when List.mem (path_of txt) idents -> found := true
       | _ -> ());
      Ast_iterator.default_iterator.expr it x
    in
    let it = { Ast_iterator.default_iterator with expr } in
    it.Ast_iterator.expr it e;
    !found
  in
  let check_structure_item top =
    (* [nargs]: how many arguments the identifier is applied to here; 0
       means it occurs as a value. A comparator needs both operands to
       stay an in-run scalar — partially applied [( = ) x] still
       escapes as a polymorphic closure. *)
    let check_ident ~nargs p loc =
      if List.mem p wall_clock then
        add ~loc "det.wall-clock" Diag.Error
          (Printf.sprintf "wall-clock read %s: simulated time comes from the harness" p)
          "route timing through Harness.Stopwatch (allowlisted) or take [now] as an argument"
      else if List.mem p self_init then
        add ~loc "det.self-init" Diag.Error
          (Printf.sprintf "%s seeds from the environment" p)
          "seed explicitly (Config.seed, Simnet.Prng.create ~seed)"
      else if List.mem p poly_hash then
        add ~loc "det.poly-hash" Diag.Error
          (Printf.sprintf "%s hashes arbitrary structure" p)
          "hash an explicit key (e.g. Five_tuple.bits) instead"
      else if nargs < 2 && List.mem p poly_compare then
        add ~loc "det.poly-compare" Diag.Error
          (Printf.sprintf "polymorphic %s passed as a value orders by physical structure"
             (if p = "=" || p = "<>" then "(" ^ p ^ ")" else p))
          "pass an explicit comparator (String.compare, Int.compare, ...)"
    in
    let expr it e =
      match e.pexp_desc with
      | Pexp_ident { txt; loc } -> check_ident ~nargs:0 (path_of txt) loc
      | Pexp_apply ({ pexp_desc = Pexp_ident { txt; loc }; _ }, args) ->
        check_ident ~nargs:(List.length args) (path_of txt) loc;
        let p = path_of txt in
        (* order leaks when the callback itself writes to a sink (one
           write per entry, in table order) with no sort in sight *)
        if
          hashtbl_iters p
          && List.exists (fun (_, a) -> scan_for sinks a) args
          && not (List.exists (fun (_, a) -> scan_for sorts a) args)
        then
          add ~loc "det.hashtbl-order" Diag.Warning
            "Hashtbl iteration order is seed-dependent and the callback writes formatted output"
            "collect entries, sort, then render";
        List.iter (fun (_, a) -> it.Ast_iterator.expr it a) args
      | _ -> Ast_iterator.default_iterator.expr it e
    in
    let it = { Ast_iterator.default_iterator with expr } in
    it.Ast_iterator.structure_item it top
  in
  List.iter check_structure_item str;
  let allowed = allowed_rules str in
  List.filter (fun (d : Diag.t) -> not (List.mem d.Diag.rule allowed)) (List.rev !diags)

let lint_string ?(file = "<string>") src =
  let lexbuf = Lexing.from_string src in
  lexbuf.Lexing.lex_curr_p <-
    { Lexing.pos_fname = file; pos_lnum = 1; pos_bol = 0; pos_cnum = 0 };
  match Parse.implementation lexbuf with
  | str -> lint_structure ~file str
  | exception _ ->
    [ Diag.v ~loc:{ Diag.file; line = 1; col = 0 } ~rule:"src.parse" ~severity:Diag.Error
        "file does not parse as OCaml" ]

let lint_file path =
  let src = In_channel.with_open_bin path In_channel.input_all in
  lint_string ~file:path src

let rec walk acc dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> acc
  | entries ->
    let entries = List.sort String.compare (Array.to_list entries) in
    List.fold_left
      (fun acc name ->
        if name = "" || name.[0] = '_' || name.[0] = '.' then acc
        else
          let p = Filename.concat dir name in
          if (try Sys.is_directory p with Sys_error _ -> false) then walk acc p
          else if Filename.check_suffix name ".ml" then p :: acc
          else acc)
      acc entries

let lint_dirs dirs =
  let files = List.sort String.compare (List.fold_left walk [] dirs) in
  List.concat_map lint_file files

let default_dirs ~root =
  List.map (Filename.concat root) [ "lib"; "bin"; "test"; "bench"; "examples" ]

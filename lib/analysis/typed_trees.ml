(* Shared by the typed-tree rules: loading, naming, allow attributes and
   fixture typechecking. *)

(* "Silkroad__Switch" -> "Silkroad.Switch"; "Silkroad__" -> "Silkroad";
   applied per dot-component of a Path.name *)
let canon_component c =
  match String.index_opt c '_' with
  | None -> c
  | Some _ ->
    let n = String.length c in
    if n > 2 && String.sub c (n - 2) 2 = "__" then String.sub c 0 (n - 2)
    else
      (* first "__" splits library prefix from unit name *)
      let rec find i =
        if i + 1 >= n then None
        else if c.[i] = '_' && c.[i + 1] = '_' then Some i
        else find (i + 1)
      in
      (match find 0 with
       | None -> c
       | Some i ->
         let unit_part = String.sub c (i + 2) (n - i - 2) in
         String.sub c 0 i ^ "." ^ String.capitalize_ascii unit_part)

let canon_name s = String.concat "." (List.map canon_component (String.split_on_char '.' s))
let canon_path p = canon_name (Path.name p)

let build_root ~root =
  let built = Filename.concat (Filename.concat root "_build") "default" in
  if Sys.file_exists built then built else root

let rec find ~ext dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | entries ->
    Array.sort String.compare entries;
    Array.fold_left
      (fun acc e ->
        let p = Filename.concat dir e in
        if Sys.is_directory p then if e = ".git" then acc else acc @ find ~ext p
        else if Filename.check_suffix e ext then acc @ [ p ]
        else acc)
      [] entries

let read path = match Cmt_format.read_cmt path with exception _ -> None | cmt -> Some cmt

let allow_payload (attr : Parsetree.attribute) =
  if attr.Parsetree.attr_name.Location.txt = "silkroad.allow" then
    match attr.Parsetree.attr_payload with
    | Parsetree.PStr
        [
          {
            Parsetree.pstr_desc =
              Parsetree.Pstr_eval
                ({ Parsetree.pexp_desc = Parsetree.Pexp_constant (Parsetree.Pconst_string (s, _, _)); _ }, _);
            _;
          };
        ] ->
      Some s
    | _ -> None
  else None

let fixture_env () =
  Clflags.dont_write_files := true;
  ignore (Warnings.parse_options false "-a");
  Compmisc.init_path ();
  Compmisc.initial_env ()

let typecheck ~file parse type_ source =
  let lexbuf = Lexing.from_string source in
  Location.init lexbuf file;
  try type_ (parse lexbuf)
  with exn ->
    let msg =
      match Location.error_of_exn exn with
      | Some (`Ok report) -> Format.asprintf "%a" Location.print_report report
      | Some `Already_displayed | None -> Printexc.to_string exn
    in
    failwith (Printf.sprintf "fixture %s does not typecheck: %s" file msg)

let type_impl env ~unit_name source =
  typecheck ~file:(unit_name ^ ".ml") Parse.implementation
    (fun parsed ->
      let str, _, _, _, _ = Typemod.type_structure env parsed in
      str)
    source

let type_intf env ~unit_name source =
  typecheck ~file:(unit_name ^ ".mli") Parse.interface (Typemod.type_interface env) source

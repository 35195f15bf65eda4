type command =
  | Vip_add of Netcore.Endpoint.t * Netcore.Endpoint.t list
  | Vip_remove of Netcore.Endpoint.t
  | Dip_add of Netcore.Endpoint.t * Netcore.Endpoint.t
  | Dip_remove of Netcore.Endpoint.t * Netcore.Endpoint.t
  | Dip_replace of {
      vip : Netcore.Endpoint.t;
      old_dip : Netcore.Endpoint.t;
      new_dip : Netcore.Endpoint.t;
    }
  | Health of [ `Down | `Up ] * Netcore.Endpoint.t
  | Advance of float
  | Stats of string option
  | Drain
  | Quit

type line = {
  seq : int option;
  cmd : command;
}

type response = {
  rseq : int option;
  body : (string, string) result;
}

let equal_command a b =
  let ep = Netcore.Endpoint.equal in
  match (a, b) with
  | Vip_add (v, ds), Vip_add (v', ds') -> ep v v' && List.equal ep ds ds'
  | Vip_remove v, Vip_remove v' -> ep v v'
  | Dip_add (v, d), Dip_add (v', d') | Dip_remove (v, d), Dip_remove (v', d') ->
      ep v v' && ep d d'
  | Dip_replace r, Dip_replace r' ->
      ep r.vip r'.vip && ep r.old_dip r'.old_dip && ep r.new_dip r'.new_dip
  | Health (s, d), Health (s', d') -> s = s' && ep d d'
  | Advance x, Advance y -> Float.equal x y
  | Stats q, Stats q' -> Option.equal String.equal q q'
  | Drain, Drain | Quit, Quit -> true
  | ( ( Vip_add _ | Vip_remove _ | Dip_add _ | Dip_remove _ | Dip_replace _
      | Health _ | Advance _ | Stats _ | Drain | Quit ),
      _ ) ->
      false

let equal_line a b = Option.equal Int.equal a.seq b.seq && equal_command a.cmd b.cmd

let equal_response a b =
  Option.equal Int.equal a.rseq b.rseq
  &&
  match (a.body, b.body) with
  | Ok x, Ok y | Error x, Error y -> String.equal x y
  | Ok _, Error _ | Error _, Ok _ -> false

(* %.17g is the shortest fixed precision that round-trips every finite
   float exactly through [float_of_string]. *)
let render_float x = Printf.sprintf "%.17g" x

let render { seq; cmd } =
  let ep = Netcore.Endpoint.to_string in
  let words =
    match cmd with
    | Vip_add (vip, dips) -> ("vip-add" :: ep vip :: List.map ep dips : string list)
    | Vip_remove vip -> [ "vip-remove"; ep vip ]
    | Dip_add (vip, dip) -> [ "dip-add"; ep vip; ep dip ]
    | Dip_remove (vip, dip) -> [ "dip-remove"; ep vip; ep dip ]
    | Dip_replace { vip; old_dip; new_dip } ->
        [ "dip-replace"; ep vip; ep old_dip; ep new_dip ]
    | Health (`Down, dip) -> [ "health"; "down"; ep dip ]
    | Health (`Up, dip) -> [ "health"; "up"; ep dip ]
    | Advance dt -> [ "advance"; render_float dt ]
    | Stats None -> [ "stats" ]
    | Stats (Some q) -> [ "stats"; q ]
    | Drain -> [ "drain" ]
    | Quit -> [ "quit" ]
  in
  let words = match seq with None -> words | Some n -> Printf.sprintf "@%d" n :: words in
  String.concat " " words

(* Serve [advance] is relative, and [a +. (b -. a)] is not always [b],
   so each delta is taken from the clock the session will hold (the sum
   of the deltas already emitted), never from the previous scheduled
   time: rounding then cannot accumulate across a long schedule. *)
let of_updates updates =
  let now = ref 0. in
  List.concat_map
    (fun (t, vip, u) ->
      let cmd =
        match u with
        | Lb.Balancer.Dip_add dip -> Dip_add (vip, dip)
        | Lb.Balancer.Dip_remove dip -> Dip_remove (vip, dip)
        | Lb.Balancer.Dip_replace { old_dip; new_dip } -> Dip_replace { vip; old_dip; new_dip }
      in
      if t > !now then begin
        let dt = t -. !now in
        now := !now +. dt;
        [ Advance dt; cmd ]
      end
      else [ cmd ])
    updates

let tokenize s =
  String.map (fun c -> if c = '\t' || c = '\r' then ' ' else c) s
  |> String.split_on_char ' '
  |> List.filter (fun t -> t <> "")

(* Socket clients send CRLF line endings and the odd trailing
   tab/space; input_line only strips the '\n'. A line ending in '\r'
   came off such a client, so the whole trailing-whitespace run goes;
   a line without one is canonical and stays byte-verbatim (responses
   carry their payload verbatim, trailing spaces included). *)
let strip_line s =
  let n = String.length s in
  if n = 0 || s.[n - 1] <> '\r' then s
  else begin
    let rec last i =
      if i > 0 && (s.[i - 1] = ' ' || s.[i - 1] = '\t' || s.[i - 1] = '\r') then last (i - 1)
      else i
    in
    String.sub s 0 (last n)
  end

let parse_endpoint what tok =
  match Netcore.Endpoint.of_string tok with
  | Some e -> Ok e
  | None -> Error (Printf.sprintf "malformed %s %S (want ip:port)" what tok)

let ( let* ) = Result.bind

let parse_seq tok =
  if String.length tok < 2 || tok.[0] <> '@' then Ok None
  else
    match int_of_string_opt (String.sub tok 1 (String.length tok - 1)) with
    | Some n when n >= 0 -> Ok (Some n)
    | Some _ | None -> Error (Printf.sprintf "malformed sequence number %S" tok)

let parse_command verb args =
  let endpoints what l =
    List.fold_left
      (fun acc tok ->
        let* acc = acc in
        let* e = parse_endpoint what tok in
        Ok (e :: acc))
      (Ok []) l
    |> Result.map List.rev
  in
  let arity2 what k =
    match args with
    | [ a; b ] ->
        let* vip = parse_endpoint "vip" a in
        let* dip = parse_endpoint "dip" b in
        Ok (k vip dip)
    | _ -> Error (Printf.sprintf "%s takes exactly 2 arguments (vip dip)" what)
  in
  match verb with
  | "vip-add" -> (
      match args with
      | vip :: (_ :: _ as dips) ->
          let* vip = parse_endpoint "vip" vip in
          let* dips = endpoints "dip" dips in
          Ok (Vip_add (vip, dips))
      | _ -> Error "vip-add takes a vip and at least one dip")
  | "vip-remove" -> (
      match args with
      | [ vip ] ->
          let* vip = parse_endpoint "vip" vip in
          Ok (Vip_remove vip)
      | _ -> Error "vip-remove takes exactly 1 argument (vip)")
  | "dip-add" -> arity2 "dip-add" (fun v d -> Dip_add (v, d))
  | "dip-remove" -> arity2 "dip-remove" (fun v d -> Dip_remove (v, d))
  | "dip-replace" -> (
      match args with
      | [ v; o; n ] ->
          let* vip = parse_endpoint "vip" v in
          let* old_dip = parse_endpoint "old dip" o in
          let* new_dip = parse_endpoint "new dip" n in
          Ok (Dip_replace { vip; old_dip; new_dip })
      | _ -> Error "dip-replace takes exactly 3 arguments (vip old new)")
  | "health" -> (
      match args with
      | [ state; dip ] ->
          let* state =
            match state with
            | "down" -> Ok `Down
            | "up" -> Ok `Up
            | s -> Error (Printf.sprintf "health state must be up or down, got %S" s)
          in
          let* dip = parse_endpoint "dip" dip in
          Ok (Health (state, dip))
      | _ -> Error "health takes exactly 2 arguments (down|up dip)")
  | "advance" -> (
      match args with
      | [ x ] -> (
          match float_of_string_opt x with
          | Some dt when Float.is_finite dt && dt >= 0. -> Ok (Advance dt)
          | Some _ | None ->
              Error (Printf.sprintf "advance wants a non-negative finite duration, got %S" x))
      | _ -> Error "advance takes exactly 1 argument (seconds)")
  | "stats" -> (
      match args with
      | [] -> Ok (Stats None)
      | [ q ] -> Ok (Stats (Some q))
      | _ -> Error "stats takes at most 1 argument (metric name)")
  | "drain" -> if args = [] then Ok Drain else Error "drain takes no arguments"
  | "quit" -> if args = [] then Ok Quit else Error "quit takes no arguments"
  | v -> Error (Printf.sprintf "unknown command %S" v)

let parse s =
  match tokenize s with
  | [] -> Ok None
  | first :: _ when first.[0] = '#' -> Ok None
  | first :: rest ->
      let* seq, verb, args =
        let* seq = parse_seq first in
        match (seq, rest) with
        | Some _, verb :: args -> Ok (seq, verb, args)
        | Some _, [] -> Error "sequence number without a command"
        | None, _ -> Ok (None, first, rest)
      in
      let* cmd = parse_command verb args in
      Ok (Some { seq; cmd })

let render_response { rseq; body } =
  let b = Buffer.create 64 in
  Buffer.add_string b (match body with Ok _ -> "ok" | Error _ -> "err");
  (match rseq with
  | None -> ()
  | Some n -> Buffer.add_string b (Printf.sprintf " @%d" n));
  (match body with
  | Ok "" -> ()
  | Ok payload ->
      Buffer.add_char b ' ';
      Buffer.add_string b payload
  | Error msg ->
      Buffer.add_char b ' ';
      Buffer.add_string b msg);
  Buffer.contents b

(* The payload is everything after the status word and optional @SEQ,
   verbatim (minus the one separating space), so responses round-trip
   byte-exactly. *)
let parse_response s =
  let s = strip_line s in
  let* status, rest =
    if String.length s >= 3 && String.sub s 0 3 = "ok " then Ok (`Ok, String.sub s 3 (String.length s - 3))
    else if s = "ok" then Ok (`Ok, "")
    else if String.length s >= 4 && String.sub s 0 4 = "err " then
      Ok (`Err, String.sub s 4 (String.length s - 4))
    else if s = "err" then Ok (`Err, "")
    else Error (Printf.sprintf "malformed response %S (want ok/err ...)" s)
  in
  let* rseq, payload =
    if String.length rest >= 2 && rest.[0] = '@' then begin
      let stop = match String.index_opt rest ' ' with Some i -> i | None -> String.length rest in
      match int_of_string_opt (String.sub rest 1 (stop - 1)) with
      | Some n when n >= 0 ->
          let payload =
            if stop = String.length rest then ""
            else String.sub rest (stop + 1) (String.length rest - stop - 1)
          in
          Ok (Some n, payload)
      | Some _ | None -> Error (Printf.sprintf "malformed response sequence in %S" s)
    end
    else Ok (None, rest)
  in
  match status with
  | `Ok -> Ok { rseq; body = Ok payload }
  | `Err -> Ok { rseq; body = Error payload }

let pp_line fmt l = Format.pp_print_string fmt (render l)
let pp_response fmt r = Format.pp_print_string fmt (render_response r)

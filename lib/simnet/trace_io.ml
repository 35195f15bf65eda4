(* %.17g round-trips every finite float exactly, so a saved trace
   compiles to the very packet times of the one in memory. *)
let flow_to_line (f : Flow.t) =
  Printf.sprintf "flow %d %s %s %.17g %.17g %.17g" f.Flow.id
    (Netcore.Endpoint.to_string f.Flow.tuple.Netcore.Five_tuple.src)
    (Netcore.Endpoint.to_string f.Flow.tuple.Netcore.Five_tuple.dst)
    f.Flow.start f.Flow.duration f.Flow.bytes_per_sec

let fields line = String.split_on_char ' ' line |> List.filter (fun s -> s <> "")

let parse_endpoint what s =
  match Netcore.Endpoint.of_string s with
  | Some e -> Ok e
  | None -> Error (Printf.sprintf "bad %s endpoint %S" what s)

let parse_float what s =
  match float_of_string_opt s with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "bad %s %S" what s)

let ( let* ) = Result.bind

let flow_of_line line =
  match fields line with
  | [ "flow"; id; src; dst; start; duration; rate ] ->
    let* id =
      match int_of_string_opt id with
      | Some i -> Ok i
      | None -> Error (Printf.sprintf "bad flow id %S" id)
    in
    let* src = parse_endpoint "src" src in
    let* dst = parse_endpoint "dst" dst in
    let* start = parse_float "start" start in
    let* duration = parse_float "duration" duration in
    let* rate = parse_float "rate" rate in
    if not (Float.is_finite start && Float.is_finite duration && Float.is_finite rate) then
      Error "start, duration and rate must be finite"
    else if start < 0. || duration < 0. || rate < 0. then
      Error "negative start, duration or rate"
    else
      Ok
        {
          Flow.id;
          tuple = Netcore.Five_tuple.make ~src ~dst ~proto:Netcore.Protocol.Tcp;
          start;
          duration;
          bytes_per_sec = rate;
        }
  | "flow" :: _ -> Error "flow line needs: flow <id> <src> <dst> <start> <duration> <rate>"
  | _ -> Error "not a flow line"

let save_flows path flows =
  Out_channel.with_open_text path (fun oc ->
      output_string oc
        "# silkroad flow trace: flow <id> <src> <dst> <start> <duration> <bytes/s>\n";
      List.iter
        (fun f ->
          output_string oc (flow_to_line f);
          output_char oc '\n')
        flows)

let load_flows path =
  In_channel.with_open_text path (fun ic ->
      let rec go n acc =
        match In_channel.input_line ic with
        | None -> Ok (List.rev acc)
        | Some line ->
          let trimmed = String.trim line in
          if trimmed = "" || trimmed.[0] = '#' then go (n + 1) acc
          else (
            match flow_of_line trimmed with
            | Ok f -> go (n + 1) (f :: acc)
            | Error msg -> Error (Printf.sprintf "line %d: %s" n msg))
      in
      go 1 [])

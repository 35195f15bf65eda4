type summary = {
  count : int;
  sum : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
  p999 : float;
}

type value =
  | Counter of int
  | Gauge of float
  | Histogram of summary

type item = {
  name : string;
  labels : (string * string) list;
  value : value;
}

type t = item list

let summarize h =
  {
    count = Histogram.count h;
    sum = Histogram.sum h;
    min = Histogram.min_value h;
    max = Histogram.max_value h;
    p50 = Histogram.median h;
    p90 = Histogram.p90 h;
    p99 = Histogram.p99 h;
    p999 = Histogram.p999 h;
  }

let sort_labels labels = List.sort (fun (a, _) (b, _) -> String.compare a b) labels

let find t ?(labels = []) name =
  let labels = sort_labels labels in
  List.find_opt (fun item -> String.equal item.name name && item.labels = labels) t

(* ----- JSON ----- *)

let json_of_item item =
  let labels =
    match item.labels with
    | [] -> []
    | ls -> [ ("labels", Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) ls)) ]
  in
  let value =
    match item.value with
    | Counter c -> [ ("kind", Json.String "counter"); ("value", Json.Int c) ]
    | Gauge g -> [ ("kind", Json.String "gauge"); ("value", Json.Float g) ]
    | Histogram s ->
      [ ("kind", Json.String "histogram");
        ("count", Json.Int s.count);
        ("sum", Json.Float s.sum);
        ("min", Json.Float s.min);
        ("max", Json.Float s.max);
        ("p50", Json.Float s.p50);
        ("p90", Json.Float s.p90);
        ("p99", Json.Float s.p99);
        ("p999", Json.Float s.p999) ]
  in
  Json.Obj ((("name", Json.String item.name) :: labels) @ value)

let to_json_value t = Json.List (List.map json_of_item t)
let to_json t = Json.to_string_pretty (to_json_value t)

let item_of_json j =
  let ( let* ) = Option.bind in
  let str k = match Json.member k j with Some (Json.String s) -> Some s | _ -> None in
  let int k = match Json.member k j with Some (Json.Int i) -> Some i | _ -> None in
  let flt k =
    match Json.member k j with
    | Some (Json.Float f) -> Some f
    | Some (Json.Int i) -> Some (float_of_int i)
    | _ -> None
  in
  let* name = str "name" in
  let labels =
    match Json.member "labels" j with
    | Some (Json.Obj fields) ->
      sort_labels
        (List.filter_map
           (fun (k, v) -> match v with Json.String s -> Some (k, s) | _ -> None)
           fields)
    | _ -> []
  in
  let* kind = str "kind" in
  let* value =
    match kind with
    | "counter" ->
      let* c = int "value" in
      Some (Counter c)
    | "gauge" ->
      let* g = flt "value" in
      Some (Gauge g)
    | "histogram" ->
      let* count = int "count" in
      let* sum = flt "sum" in
      let* min = flt "min" in
      let* max = flt "max" in
      let* p50 = flt "p50" in
      let* p90 = flt "p90" in
      let* p99 = flt "p99" in
      let* p999 = flt "p999" in
      Some (Histogram { count; sum; min; max; p50; p90; p99; p999 })
    | _ -> None
  in
  Some { name; labels; value }

let of_json s =
  match Json.parse s with
  | Error e -> Error e
  | Ok (Json.List items) ->
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | j :: rest ->
        (match item_of_json j with
         | Some item -> go (item :: acc) rest
         | None -> Error "malformed snapshot item")
    in
    go [] items
  | Ok _ -> Error "snapshot must be a JSON array"

(* ----- CSV ----- *)

let csv_escape s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let to_csv t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "name,labels,kind,field,value\n";
  let row name labels kind field value =
    Buffer.add_string buf
      (Printf.sprintf "%s,%s,%s,%s,%s\n" (csv_escape name) (csv_escape labels) kind field value)
  in
  List.iter
    (fun item ->
      let labels =
        String.concat ";" (List.map (fun (k, v) -> k ^ "=" ^ v) item.labels)
      in
      match item.value with
      | Counter c -> row item.name labels "counter" "value" (string_of_int c)
      | Gauge g -> row item.name labels "gauge" "value" (Printf.sprintf "%.17g" g)
      | Histogram s ->
        row item.name labels "histogram" "count" (string_of_int s.count);
        List.iter
          (fun (field, v) -> row item.name labels "histogram" field (Printf.sprintf "%.17g" v))
          [ ("sum", s.sum); ("min", s.min); ("max", s.max); ("p50", s.p50); ("p90", s.p90);
            ("p99", s.p99); ("p999", s.p999) ])
    t;
  Buffer.contents buf

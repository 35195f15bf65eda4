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

let find t name = List.find_opt (fun item -> String.equal item.name name && item.labels = []) t

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

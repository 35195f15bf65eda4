type labels = (string * string) list

module Counter = struct
  type t = int ref

  let incr c = Stdlib.incr c
  let add c n = c := !c + n
  let value c = !c
end

module Gauge = struct
  (* an all-float record stores its field unboxed, so [set_int] writes
     without allocating; [set] boxes only its argument at the call *)
  type t = { mutable v : float }

  let set g v = g.v <- v
  let set_int g n = g.v <- float_of_int n
  let add g v = g.v <- g.v +. v
  let value g = g.v
end

type metric =
  | M_counter of Counter.t
  | M_gauge of Gauge.t
  | M_histogram of Histogram.t

type entry = {
  name : string;
  labels : labels;
  metric : metric;
}

type t = { entries : (string, entry) Hashtbl.t }

let create () = { entries = Hashtbl.create 64 }

let sort_labels labels = List.sort (fun (a, _) (b, _) -> String.compare a b) labels

let key name labels =
  match labels with
  | [] -> name
  | ls -> name ^ "{" ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) ls) ^ "}"

let kind_name = function
  | M_counter _ -> "counter"
  | M_gauge _ -> "gauge"
  | M_histogram _ -> "histogram"

let register t name labels fresh =
  let labels = sort_labels labels in
  let k = key name labels in
  match Hashtbl.find_opt t.entries k with
  | Some e -> e.metric
  | None ->
    let metric = fresh () in
    Hashtbl.replace t.entries k { name; labels; metric };
    metric

let mismatch name ~wanted got =
  invalid_arg
    (Printf.sprintf "Telemetry.Registry: %s already registered as a %s, not a %s" name
       (kind_name got) wanted)

let counter t ?(labels = []) name =
  match register t name labels (fun () -> M_counter (ref 0)) with
  | M_counter c -> c
  | m -> mismatch name ~wanted:"counter" m

let gauge t ?(labels = []) name =
  match register t name labels (fun () -> M_gauge { Gauge.v = 0. }) with
  | M_gauge g -> g
  | m -> mismatch name ~wanted:"gauge" m

let histogram t ?(labels = []) ?spec name =
  match register t name labels (fun () -> M_histogram (Histogram.create ?spec ())) with
  | M_histogram h -> h
  | m -> mismatch name ~wanted:"histogram" m

let find t name labels = Hashtbl.find_opt t.entries (key name (sort_labels labels))

let counter_value t ?(labels = []) name =
  match find t name labels with Some { metric = M_counter c; _ } -> !c | _ -> 0

let gauge_value t ?(labels = []) name =
  match find t name labels with Some { metric = M_gauge g; _ } -> g.Gauge.v | _ -> 0.

let find_histogram t ?(labels = []) name =
  match find t name labels with Some { metric = M_histogram h; _ } -> Some h | _ -> None

let snapshot t =
  Hashtbl.fold
    (fun _ e acc ->
      let value =
        match e.metric with
        | M_counter c -> Snapshot.Counter !c
        | M_gauge g -> Snapshot.Gauge g.Gauge.v
        | M_histogram h -> Snapshot.Histogram (Snapshot.summarize h)
      in
      { Snapshot.name = e.name; labels = e.labels; value } :: acc)
    t.entries []
  |> List.sort (fun (a : Snapshot.item) b ->
         match String.compare a.name b.name with
         | 0 -> compare a.labels b.labels
         | c -> c)

let merge_into ~into src =
  Hashtbl.iter
    (fun _ e ->
      match e.metric with
      | M_counter c -> Counter.add (counter into ~labels:e.labels e.name) !c
      | M_gauge g -> Gauge.add (gauge into ~labels:e.labels e.name) g.Gauge.v
      | M_histogram h ->
        Histogram.merge_into
          ~into:(histogram into ~labels:e.labels ~spec:(Histogram.spec h) e.name)
          h)
    src.entries

let merge_all regs =
  let into = create () in
  List.iter (fun r -> merge_into ~into r) regs;
  into

let to_json t = Snapshot.to_json (snapshot t)
let to_csv t = Snapshot.to_csv (snapshot t)

let percentile xs p =
  if xs = [] then invalid_arg "Stats.percentile: empty list";
  assert (p >= 0. && p <= 100.);
  let arr = Array.of_list xs in
  Array.sort Float.compare arr;
  let n = Array.length arr in
  if n = 1 then arr.(0)
  else
    let rank = p /. 100. *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = int_of_float (Float.ceil rank) in
    let frac = rank -. float_of_int lo in
    (arr.(lo) *. (1. -. frac)) +. (arr.(hi) *. frac)

let median xs = percentile xs 50.
let p99 xs = percentile xs 99.

let median_of_histogram h = Telemetry.Histogram.median h
let p99_of_histogram h = Telemetry.Histogram.p99 h

let ccdf_at xs threshold =
  if xs = [] then 0.
  else
    let above = List.length (List.filter (fun x -> x > threshold) xs) in
    float_of_int above /. float_of_int (List.length xs)

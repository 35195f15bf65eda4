type spec = {
  lo : float;
  decades : int;
  buckets_per_decade : int;
}

type t = {
  sp : spec;
  log_lo : float;
  (* buckets per natural-log unit: index = floor ((ln v - ln lo) * scale) *)
  scale : float;
  hi : float;  (** upper bound of the last regular bucket *)
  counts : int array;
  mutable underflow : int;
  mutable overflow : int;
  mutable count : int;
  mutable sum : float;
  mutable min_v : float;
  mutable max_v : float;
}

let default_spec = { lo = 1e-9; decades = 13; buckets_per_decade = 40 }

let create ?(spec = default_spec) () =
  if spec.lo <= 0. then invalid_arg "Histogram.create: lo must be positive";
  if spec.decades <= 0 || spec.buckets_per_decade <= 0 then
    invalid_arg "Histogram.create: empty bucket range";
  {
    sp = spec;
    log_lo = Float.log spec.lo;
    scale = float_of_int spec.buckets_per_decade /. Float.log 10.;
    hi = spec.lo *. (10. ** float_of_int spec.decades);
    counts = Array.make (spec.decades * spec.buckets_per_decade) 0;
    underflow = 0;
    overflow = 0;
    count = 0;
    sum = 0.;
    min_v = 0.;
    max_v = 0.;
  }

let spec t = t.sp

let observe t v =
  if t.count = 0 then begin
    t.min_v <- v;
    t.max_v <- v
  end
  else begin
    if v < t.min_v then t.min_v <- v;
    if v > t.max_v then t.max_v <- v
  end;
  t.count <- t.count + 1;
  t.sum <- t.sum +. v;
  if not (Float.is_finite v) || v >= t.hi then t.overflow <- t.overflow + 1
  else if v < t.sp.lo then t.underflow <- t.underflow + 1
  else begin
    let idx = int_of_float ((Float.log v -. t.log_lo) *. t.scale) in
    let idx = if idx < 0 then 0 else if idx >= Array.length t.counts then Array.length t.counts - 1 else idx in
    t.counts.(idx) <- t.counts.(idx) + 1
  end

let count t = t.count
let sum t = t.sum
let min_value t = if t.count = 0 then 0. else t.min_v
let max_value t = if t.count = 0 then 0. else t.max_v

(* representative value of bucket [i]: its log-space midpoint *)
let bucket_mid t i = Float.exp (t.log_lo +. ((float_of_int i +. 0.5) /. t.scale))

let quantile t q =
  if t.count = 0 then 0.
  else if q <= 0. then t.min_v
  else if q >= 1. then t.max_v
  else begin
    let clamp v = Float.min t.max_v (Float.max t.min_v v) in
    let target = q *. float_of_int t.count in
    let cum = ref (float_of_int t.underflow) in
    if !cum >= target then clamp t.sp.lo
    else begin
      let result = ref t.max_v in
      (try
         for i = 0 to Array.length t.counts - 1 do
           let c = t.counts.(i) in
           if c > 0 then begin
             cum := !cum +. float_of_int c;
             if !cum >= target then begin
               result := clamp (bucket_mid t i);
               raise Exit
             end
           end
         done
       with Exit -> ());
      !result
    end
  end

let median t = quantile t 0.5
let p90 t = quantile t 0.9
let p99 t = quantile t 0.99
let p999 t = quantile t 0.999

let merge_into ~into src =
  if into.sp <> src.sp then invalid_arg "Histogram.merge: incompatible bucket specs";
  if src.count > 0 then begin
    if into.count = 0 then begin
      into.min_v <- src.min_v;
      into.max_v <- src.max_v
    end
    else begin
      if src.min_v < into.min_v then into.min_v <- src.min_v;
      if src.max_v > into.max_v then into.max_v <- src.max_v
    end;
    into.count <- into.count + src.count;
    into.sum <- into.sum +. src.sum;
    into.underflow <- into.underflow + src.underflow;
    into.overflow <- into.overflow + src.overflow;
    Array.iteri (fun i c -> into.counts.(i) <- into.counts.(i) + c) src.counts
  end

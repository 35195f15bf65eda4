type t = Prng.t -> float

let sample t rng = t rng

let constant v _ = v

let lognormal ~mu ~sigma =
  assert (sigma >= 0.);
  fun rng -> exp (mu +. (sigma *. Prng.normal rng))

(* z-score of the 99th percentile of the standard normal *)
let z99 = 2.3263478740408408

let lognormal_of_quantiles ~median ~p99 =
  assert (median > 0. && p99 > median);
  let mu = log median in
  let sigma = (log p99 -. mu) /. z99 in
  lognormal ~mu ~sigma

let truncated d ~lo ~hi =
  assert (hi >= lo);
  fun rng -> Float.min hi (Float.max lo (d rng))

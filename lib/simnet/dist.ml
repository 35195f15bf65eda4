type t = {
  sample : Prng.t -> float;
  mean : float option;
}

let sample t rng = t.sample rng
let mean t = t.mean

let constant v = { sample = (fun _ -> v); mean = Some v }

let exponential ~mean =
  { sample = (fun rng -> Prng.exponential rng ~mean); mean = Some mean }

let lognormal ~mu ~sigma =
  assert (sigma >= 0.);
  {
    sample = (fun rng -> exp (mu +. (sigma *. Prng.normal rng)));
    mean = Some (exp (mu +. (sigma *. sigma /. 2.)));
  }

(* z-score of the 99th percentile of the standard normal *)
let z99 = 2.3263478740408408

let lognormal_of_quantiles ~median ~p99 =
  assert (median > 0. && p99 > median);
  let mu = log median in
  let sigma = (log p99 -. mu) /. z99 in
  lognormal ~mu ~sigma

let pareto ~shape ~scale =
  assert (shape > 0. && scale > 0.);
  {
    sample =
      (fun rng ->
        let u = 1. -. Prng.uniform rng in
        scale /. (u ** (1. /. shape)));
    mean = (if shape > 1. then Some (shape *. scale /. (shape -. 1.)) else None);
  }

let mixture parts =
  assert (parts <> []);
  let total = List.fold_left (fun acc (_, w) -> acc +. w) 0. parts in
  assert (total > 0.);
  let mean =
    List.fold_left
      (fun acc (d, w) ->
        match acc, d.mean with
        | Some m, Some dm -> Some (m +. (dm *. w /. total))
        | _, _ -> None)
      (Some 0.) parts
  in
  {
    sample =
      (fun rng ->
        let d = Prng.choose_weighted rng (List.map (fun (d, w) -> (d, w)) parts) in
        d.sample rng);
    mean;
  }

let scaled d f =
  {
    sample = (fun rng -> d.sample rng *. f);
    mean = (match d.mean with Some m -> Some (m *. f) | None -> None);
  }

let truncated d ~lo ~hi =
  assert (hi >= lo);
  { sample = (fun rng -> Float.min hi (Float.max lo (d.sample rng))); mean = None }

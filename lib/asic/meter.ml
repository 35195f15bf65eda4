type color =
  | Green
  | Yellow
  | Red

(* Every field is a float, so OCaml stores the record flat and [mark]
   updates the buckets in place without boxing. *)
type t = {
  cir : float;
  cbs : float;
  eir : float;
  ebs : float;
  mutable tc : float;  (** committed bucket tokens (bytes) *)
  mutable te : float;  (** excess bucket tokens (bytes) *)
  mutable last : float;
}

let create ~cir ~cbs ~eir ~ebs =
  assert (cir >= 0. && eir >= 0.);
  assert (cbs >= 0 && ebs >= 0);
  let cbs = float_of_int cbs and ebs = float_of_int ebs in
  { cir; cbs; eir; ebs; tc = cbs; te = ebs; last = 0. }

let refill t ~now =
  let dt = now -. t.last in
  assert (dt >= -1e-9);
  let dt = Float.max dt 0. in
  t.tc <- Float.min t.cbs (t.tc +. (t.cir *. dt));
  t.te <- Float.min t.ebs (t.te +. (t.eir *. dt));
  t.last <- now

let mark t ~now ~bytes =
  assert (bytes >= 0);
  refill t ~now;
  let b = float_of_int bytes in
  if t.tc >= b then begin
    t.tc <- t.tc -. b;
    Green
  end
  else if t.te >= b then begin
    t.te <- t.te -. b;
    Yellow
  end
  else Red

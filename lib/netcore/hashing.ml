(* The chains below are marked [@inline], and the libraries are built
   without [-opaque], so a caller in another module that composes them
   ([to_range (seeded ~seed (of_halves hi lo)) n]) compiles to one body
   in which the Int64 intermediates stay unboxed. *)
let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] seeded ~seed x =
  (* The golden-ratio stride decorrelates nearby seeds before mixing. *)
  let key = Int64.mul (Int64.of_int (seed + 1)) 0x9e3779b97f4a7c15L in
  mix64 (Int64.logxor (mix64 key) x)

let[@inline] to_range h n =
  assert (n > 0);
  (* Keep 62 bits so the value fits OCaml's native positive int range. *)
  let v = Int64.to_int (Int64.logand h 0x3FFF_FFFF_FFFF_FFFFL) in
  v mod n

let[@inline] truncate_bits h k =
  assert (k > 0 && k <= 30);
  Int64.to_int (Int64.logand h (Int64.of_int ((1 lsl k) - 1)))

let[@inline] of_halves hi lo = Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo)

let seeded_above ~seed ~hi ~lo ~a ~b =
  let h = seeded ~seed (of_halves hi lo) in
  Int64.unsigned_compare (seeded ~seed:a h) (seeded ~seed:b h) > 0

type family = { seed : int }

let family ~seed = { seed }

let[@inline] member_seed seed i = (seed * 1013) + (i * 7919) + 17
let[@inline] apply { seed } i x = seeded ~seed:(member_seed seed i) x

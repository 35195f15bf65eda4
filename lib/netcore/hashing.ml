(* [@inline] only reaches callers in this module: dune's default dev
   profile compiles every module with [-opaque], so no other module sees
   these bodies and each cross-module call boxes its int64 result.
   [seeded_range]/[seeded_bits] below keep the whole chain in one body,
   where the Int64 intermediates stay unboxed, and return a plain int.
   They take the key as two immediate halves, so the caller's key needs
   no int64 box of its own either. *)
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
let seeded_range ~seed ~hi ~lo n = to_range (seeded ~seed (of_halves hi lo)) n
let seeded_bits ~seed ~hi ~lo k = truncate_bits (seeded ~seed (of_halves hi lo)) k
let seeded_halves ~seed ~hi ~lo = seeded ~seed (of_halves hi lo)

type family = { seed : int }

let family ~seed = { seed }

let apply { seed } i x = seeded ~seed:(seed * 1013 + i * 7919 + 17) x

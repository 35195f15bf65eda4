type t = {
  regs : Register_array.t;
  nbits : int;
  hashes : int;
  family : Netcore.Hashing.family;
  mutable population : int;
  c_adds : Telemetry.Registry.Counter.t;
  c_clears : Telemetry.Registry.Counter.t;
  g_fill : Telemetry.Registry.Gauge.t;
}

let create ?(seed = 0x710f) ?metrics ~bits ~hashes () =
  assert (bits > 0);
  assert (hashes >= 1 && hashes <= 16);
  let reg = match metrics with Some r -> r | None -> Telemetry.Registry.create () in
  {
    regs = Register_array.create ~name:"bloom" ~width_bits:1 ~size:bits ();
    nbits = bits;
    hashes;
    family = Netcore.Hashing.family ~seed;
    population = 0;
    c_adds = Telemetry.Registry.counter reg "bloom.adds";
    c_clears = Telemetry.Registry.counter reg "bloom.clears";
    g_fill = Telemetry.Registry.gauge reg "bloom.fill_ratio";
  }

let bits t = t.nbits
(* A key is handled as its unsigned 32-bit halves, so the per-miss
   path ([add_halves]/[mem_halves]) passes no int64 across a module
   boundary; the int64 entry points split their key and share the same
   bodies. *)
let index t i ~hi ~lo = Netcore.Hashing.apply_range t.family i ~hi ~lo t.nbits

let add_halves t ~hi ~lo =
  for i = 0 to t.hashes - 1 do
    let idx = index t i ~hi ~lo in
    if Register_array.read t.regs idx = 0 then begin
      Register_array.write t.regs idx 1;
      t.population <- t.population + 1
    end
  done;
  Telemetry.Registry.Counter.incr t.c_adds;
  Telemetry.Registry.Gauge.set_ratio t.g_fill t.population t.nbits

let mem_halves t ~hi ~lo =
  let i = ref 0 in
  while !i < t.hashes && Register_array.read t.regs (index t !i ~hi ~lo) = 1 do
    incr i
  done;
  !i >= t.hashes

let[@inline] hi_of key = Int64.to_int (Int64.shift_right_logical key 32)
let[@inline] lo_of key = Int64.to_int (Int64.logand key 0xffff_ffffL)
let add t key = add_halves t ~hi:(hi_of key) ~lo:(lo_of key)
let mem t key = mem_halves t ~hi:(hi_of key) ~lo:(lo_of key)

let clear t =
  Register_array.clear t.regs;
  t.population <- 0;
  Telemetry.Registry.Counter.incr t.c_clears;
  Telemetry.Registry.Gauge.set t.g_fill 0.

let population t = t.population

let fill_ratio t = float_of_int t.population /. float_of_int t.nbits

let false_positive_probability t = fill_ratio t ** float_of_int t.hashes

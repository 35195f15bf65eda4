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
let index t i key = Netcore.Hashing.to_range (Netcore.Hashing.apply t.family i key) t.nbits

let add t key =
  for i = 0 to t.hashes - 1 do
    let idx = index t i key in
    if Register_array.read t.regs idx = 0 then begin
      Register_array.write t.regs idx 1;
      t.population <- t.population + 1
    end
  done;
  Telemetry.Registry.Counter.incr t.c_adds;
  Telemetry.Registry.Gauge.set t.g_fill
    (float_of_int t.population /. float_of_int t.nbits)

let mem t key =
  let rec probe i =
    i >= t.hashes || (Register_array.read t.regs (index t i key) = 1 && probe (i + 1))
  in
  probe 0

let clear t =
  Register_array.clear t.regs;
  t.population <- 0;
  Telemetry.Registry.Counter.incr t.c_clears;
  Telemetry.Registry.Gauge.set t.g_fill 0.

let population t = t.population

let fill_ratio t = float_of_int t.population /. float_of_int t.nbits

let false_positive_probability t = fill_ratio t ** float_of_int t.hashes

type t = {
  name : string;
  width_bits : int;
  mask : int;
  cells : int array;
  mutable ops : int;
}

let create ?(name = "registers") ~width_bits ~size () =
  assert (width_bits >= 1 && width_bits <= 62);
  assert (size > 0);
  { name; width_bits; mask = (1 lsl width_bits) - 1; cells = Array.make size 0; ops = 0 }

let read t i =
  t.ops <- t.ops + 1;
  t.cells.(i)

let write t i v =
  t.ops <- t.ops + 1;
  t.cells.(i) <- v land t.mask

let clear t = Array.fill t.cells 0 (Array.length t.cells) 0

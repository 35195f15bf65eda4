type t = {
  bits : int;
  free : int Queue.t;
  allocated : bool array;
  mutable exhaustions : int;
}

let create ~bits =
  assert (bits >= 1 && bits <= 16);
  let n = 1 lsl bits in
  let free = Queue.create () in
  for v = 0 to n - 1 do
    Queue.add v free
  done;
  { bits; free; allocated = Array.make n false; exhaustions = 0 }

let capacity t = 1 lsl t.bits
let free_count t = Queue.length t.free
let allocate t =
  match Queue.take_opt t.free with
  | Some v ->
    t.allocated.(v) <- true;
    Ok v
  | None ->
    t.exhaustions <- t.exhaustions + 1;
    Error `Exhausted

let release t v =
  if v < 0 || v >= capacity t || not t.allocated.(v) then
    invalid_arg "Version.release: not allocated";
  t.allocated.(v) <- false;
  Queue.add v t.free

let is_allocated t v = v >= 0 && v < capacity t && t.allocated.(v)

let exhaustions t = t.exhaustions

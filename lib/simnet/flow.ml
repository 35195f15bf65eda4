type t = {
  id : int;
  tuple : Netcore.Five_tuple.t;
  start : float;
  duration : float;
  bytes_per_sec : float;
}

let finish t = t.start +. t.duration

type t =
  | Tcp
  | Udp

let equal a b = a = b
let to_byte = function Tcp -> 6 | Udp -> 17
let compare a b = Int.compare (to_byte a) (to_byte b)
let pp ppf t = Format.pp_print_string ppf (match t with Tcp -> "tcp" | Udp -> "udp")

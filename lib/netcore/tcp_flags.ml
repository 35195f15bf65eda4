type t = {
  syn : bool;
  ack : bool;
  fin : bool;
  rst : bool;
  psh : bool;
  urg : bool;
}

let none = { syn = false; ack = false; fin = false; rst = false; psh = false; urg = false }
let syn = { none with syn = true }
let fin = { none with fin = true; ack = true }
let data = { none with ack = true; psh = true }

let to_byte { syn; ack; fin; rst; psh; urg } =
  (if fin then 0x01 else 0)
  lor (if syn then 0x02 else 0)
  lor (if rst then 0x04 else 0)
  lor (if psh then 0x08 else 0)
  lor (if ack then 0x10 else 0)
  lor (if urg then 0x20 else 0)

let of_byte b =
  {
    fin = b land 0x01 <> 0;
    syn = b land 0x02 <> 0;
    rst = b land 0x04 <> 0;
    psh = b land 0x08 <> 0;
    ack = b land 0x10 <> 0;
    urg = b land 0x20 <> 0;
  }

let is_connection_start t = t.syn && not t.ack
let is_connection_end t = t.fin || t.rst

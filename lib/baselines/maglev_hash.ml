type t = {
  table : Netcore.Endpoint.t array;
  backends : Netcore.Endpoint.t list;
}

(* a prime, so every skip walks the whole table *)
let m = 65537

let create backends =
  if backends = [] then invalid_arg "Maglev_hash.create: no backends";
  if List.length backends >= m then invalid_arg "Maglev_hash.create: table smaller than backend set";
  let n = List.length backends in
  let backends_arr = Array.of_list backends in
  (* Per-backend permutation parameters from two independent hashes of
     the backend identity. *)
  let offsets = Array.make n 0 and skips = Array.make n 0 in
  Array.iteri
    (fun i b ->
      let h1 = Netcore.Endpoint.hash_fold 0x0ff5e7L b in
      let h2 = Netcore.Endpoint.hash_fold 0x5419L b in
      offsets.(i) <- Netcore.Hashing.to_range h1 m;
      skips.(i) <- Netcore.Hashing.to_range h2 (m - 1) + 1)
    backends_arr;
  let next = Array.make n 0 in
  let table = Array.make m (-1) in
  let filled = ref 0 in
  (* Round-robin: each backend claims its next preferred empty slot. *)
  while !filled < m do
    for i = 0 to n - 1 do
      if !filled < m then begin
        let rec claim () =
          let c = (offsets.(i) + (next.(i) * skips.(i))) mod m in
          next.(i) <- next.(i) + 1;
          if table.(c) < 0 then begin
            table.(c) <- i;
            incr filled
          end
          else claim ()
        in
        claim ()
      end
    done
  done;
  { table = Array.map (fun i -> backends_arr.(i)) table; backends }

let lookup t h = t.table.(Netcore.Hashing.to_range h (Array.length t.table))

let table_size t = Array.length t.table
let entries_of t b =
  Array.fold_left (fun acc x -> if Netcore.Endpoint.equal x b then acc + 1 else acc) 0 t.table

let disruption a b =
  if Array.length a.table <> Array.length b.table then
    invalid_arg "Maglev_hash.disruption: different table sizes";
  let moved = ref 0 in
  Array.iteri
    (fun i x -> if not (Netcore.Endpoint.equal x b.table.(i)) then incr moved)
    a.table;
  float_of_int !moved /. float_of_int (Array.length a.table)

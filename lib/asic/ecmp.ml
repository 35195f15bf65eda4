let select members h =
  assert (Array.length members > 0);
  members.(Netcore.Hashing.to_range h (Array.length members))

type 'a resilient = {
  slots : 'a array;
  members : 'a array;
}

let resilient ?(slots_per_member = 64) members =
  assert (Array.length members > 0);
  assert (slots_per_member > 0);
  let n = Array.length members * slots_per_member in
  { slots = Array.init n (fun i -> members.(i mod Array.length members)); members }

let resilient_select t h = t.slots.(Netcore.Hashing.to_range h (Array.length t.slots))

let resilient_remove ~equal t m =
  let survivors = Array.of_list (List.filter (fun x -> not (equal x m)) (Array.to_list t.members)) in
  assert (Array.length survivors > 0);
  let counter = ref 0 in
  let slots =
    Array.map
      (fun owner ->
        if equal owner m then begin
          let s = survivors.(!counter mod Array.length survivors) in
          incr counter;
          s
        end
        else owner)
      t.slots
  in
  { slots; members = survivors }

let select members h =
  assert (Array.length members > 0);
  members.(Netcore.Hashing.to_range h (Array.length members))

let select_index n h = Netcore.Hashing.to_range h n

type 'a resilient = {
  slots : 'a array;
  members : 'a array;
}

let resilient ?(slots_per_member = 64) members =
  assert (Array.length members > 0);
  assert (slots_per_member > 0);
  let n = Array.length members * slots_per_member in
  { slots = Array.init n (fun i -> members.(i mod Array.length members)); members }

let resilient_slots t = Array.length t.slots
let resilient_slot t i = t.slots.(i)
let resilient_select t h = resilient_slot t (Netcore.Hashing.to_range h (resilient_slots t))

let resilient_members t = t.members

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

let resilient_add t m =
  let members = Array.append t.members [| m |] in
  let n_members = Array.length members in
  let share = Array.length t.slots / n_members in
  (* Deterministically steal every (n_members)-th slot until the new
     member owns an even share. *)
  let slots = Array.copy t.slots in
  let stolen = ref 0 in
  let i = ref 0 in
  while !stolen < share && !i < Array.length slots do
    if !i mod n_members = 0 then begin
      slots.(!i) <- m;
      incr stolen
    end;
    incr i
  done;
  { slots; members }

type 'k t = {
  granularity : float;
  slots : ('k, float) Hashtbl.t array;
  index : ('k, int) Hashtbl.t;  (** key -> slot currently holding it *)
  mutable last_swept : int;  (** highest completed tick already swept *)
}

let create ~granularity ~slots () =
  assert (granularity > 0.);
  assert (slots >= 2);
  {
    granularity;
    slots = Array.init slots (fun _ -> Hashtbl.create 16);
    index = Hashtbl.create 64;
    last_swept = -1;
  }

let cancel t ~key =
  match Hashtbl.find_opt t.index key with
  | Some slot ->
    Hashtbl.remove t.slots.(slot) key;
    Hashtbl.remove t.index key
  | None -> ()

let schedule t ~key ~at =
  cancel t ~key;
  (* never place a deadline into an already-completed tick: it would sit
     unseen until the wheel came all the way around again *)
  let tick = Int.max (int_of_float (at /. t.granularity)) (t.last_swept + 1) in
  let slot = tick mod Array.length t.slots in
  Hashtbl.replace t.slots.(slot) key at;
  Hashtbl.replace t.index key slot

let mem t ~key = Hashtbl.mem t.index key

let scheduled t = Hashtbl.length t.index

(* Deadlines are delivered when their tick completes, i.e. up to one
   granularity late. The payoff is the fast path: [advance] is called on
   every packet, and while time moves within the current tick it is a
   single integer compare — no slot scan, no allocation. The previous
   version folded over the current slot's whole hashtable on every call,
   which at millions of scheduled entries turned each packet into an
   O(slot population) scan. *)
let advance t ~now =
  let target_tick = int_of_float (now /. t.granularity) in
  if target_tick - 1 <= t.last_swept then []
  else begin
    let n = Array.length t.slots in
    let last = target_tick - 1 in
    (* at most one full revolution: n consecutive ticks visit every
       slot. The filter is on the entry's own tick, not [at <= now]: a
       slot visited for an earlier-revolution tick also holds entries
       whose tick is still running, and those must wait for it *)
    let first = Int.max (t.last_swept + 1) (last - n + 1) in
    let expired = ref [] in
    for tick = first to last do
      let h = t.slots.(tick mod n) in
      if Hashtbl.length h > 0 then begin
        let due =
          Hashtbl.fold
            (fun key at acc ->
              if int_of_float (at /. t.granularity) <= last then (key, at) :: acc else acc)
            h []
        in
        List.iter
          (fun (key, _) ->
            Hashtbl.remove h key;
            Hashtbl.remove t.index key)
          due;
        expired := due @ !expired
      end
    done;
    t.last_swept <- last;
    List.sort (fun (_, a) (_, b) -> Float.compare a b) !expired |> List.map fst
  end

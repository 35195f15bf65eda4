module Tbl = Netcore.Five_tuple.Tbl

type entry = {
  at : float;
  seq : int;  (** scheduling order: breaks ties between equal deadlines *)
}

type t = {
  granularity : float;
  slots : entry Tbl.t array;
  index : int Tbl.t;  (** key -> slot currently holding it *)
  mutable last_swept : int;  (** highest completed tick already swept *)
  mutable next_seq : int;
}

let create ~granularity ~slots () =
  assert (granularity > 0.);
  assert (slots >= 2);
  {
    granularity;
    slots = Array.init slots (fun _ -> Tbl.create 16);
    index = Tbl.create 64;
    last_swept = -1;
    next_seq = 0;
  }

let cancel t ~key =
  match Tbl.find_opt t.index key with
  | Some slot ->
    Tbl.remove t.slots.(slot) key;
    Tbl.remove t.index key
  | None -> ()

let schedule t ~key ~at =
  cancel t ~key;
  (* never place a deadline into an already-completed tick: it would sit
     unseen until the wheel came all the way around again *)
  let tick = Int.max (int_of_float (at /. t.granularity)) (t.last_swept + 1) in
  let slot = tick mod Array.length t.slots in
  Tbl.replace t.slots.(slot) key { at; seq = t.next_seq };
  t.next_seq <- t.next_seq + 1;
  Tbl.replace t.index key slot

let mem t ~key = Tbl.mem t.index key

let scheduled t = Tbl.length t.index

let by_deadline (_, a) (_, b) =
  match Float.compare a.at b.at with 0 -> Int.compare a.seq b.seq | c -> c

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
      if Tbl.length h > 0 then begin
        let due =
          Tbl.fold
            (fun key e acc ->
              if int_of_float (e.at /. t.granularity) <= last then (key, e) :: acc else acc)
            h []
        in
        List.iter
          (fun (key, _) ->
            Tbl.remove h key;
            Tbl.remove t.index key)
          due;
        expired := due @ !expired
      end
    done;
    t.last_swept <- last;
    (* the order is fixed by (deadline, scheduling order), never by the
       slot tables' layout *)
    List.sort by_deadline !expired |> List.map fst
  end

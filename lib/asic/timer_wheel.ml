(* One dense vector per slot: the payload, its deadline and its
   scheduling sequence number in three parallel arrays. A position is
   [index * slots + slot]; the owner keeps it, so [cancel] needs no
   index of its own. *)
type 'a slot = {
  mutable keys : 'a array;
  mutable ats : float array;
  mutable seqs : int array;  (** scheduling order: breaks ties between equal deadlines *)
  mutable len : int;
}

type 'a t = {
  granularity : float;
  slots : 'a slot array;
  set_pos : 'a -> int -> unit;
  mutable count : int;
  mutable last_swept : int;  (** highest completed tick already swept *)
  mutable next_seq : int;
  due : 'a slot;  (** [advance]'s scratch: the entries being delivered *)
}

let no_pos = -1

let empty_slot () = { keys = [||]; ats = [||]; seqs = [||]; len = 0 }

let create ?(set_pos = fun _ _ -> ()) ~granularity ~slots () =
  assert (granularity > 0.);
  assert (slots >= 2);
  {
    granularity;
    slots = Array.init slots (fun _ -> empty_slot ());
    set_pos;
    count = 0;
    last_swept = -1;
    next_seq = 0;
    due = empty_slot ();
  }

(* append, doubling the vector when full; returns the entry's index.
   The payload array doubles with [Array.append]: an [Array.make] too
   big for the minor heap whose filler is young (a payload just
   created) forces a minor collection first. *)
let push s key at seq =
  let n = s.len in
  if n = Array.length s.keys then begin
    let cap = Int.max 8 (2 * n) in
    let ats = Array.make cap 0. and seqs = Array.make cap 0 in
    Array.blit s.ats 0 ats 0 n;
    Array.blit s.seqs 0 seqs 0 n;
    s.keys <- (if n = 0 then Array.make cap key else Array.append s.keys s.keys);
    s.ats <- ats;
    s.seqs <- seqs
  end;
  s.keys.(n) <- key;
  s.ats.(n) <- at;
  s.seqs.(n) <- seq;
  s.len <- n + 1;
  n

let pos_of t slot i = (i * Array.length t.slots) + slot

(* swap-remove entry [i] of [slot]: the last entry moves into the hole
   and reports its new position. The vacated cell is pointed at a live
   entry so the vector does not keep a dead payload reachable. *)
let remove_at t slot s i =
  let last = s.len - 1 in
  let removed = s.keys.(i) in
  if i < last then begin
    let moved = s.keys.(last) in
    s.keys.(i) <- moved;
    s.ats.(i) <- s.ats.(last);
    s.seqs.(i) <- s.seqs.(last);
    t.set_pos moved (pos_of t slot i)
  end;
  s.len <- last;
  if last > 0 then s.keys.(last) <- s.keys.(0);
  t.count <- t.count - 1;
  t.set_pos removed no_pos

let schedule t ~key ~at =
  (* never place a deadline into an already-completed tick: it would sit
     unseen until the wheel came all the way around again *)
  let tick = Int.max (int_of_float (at /. t.granularity)) (t.last_swept + 1) in
  let slot = tick mod Array.length t.slots in
  let i = push t.slots.(slot) key at t.next_seq in
  t.next_seq <- t.next_seq + 1;
  t.count <- t.count + 1;
  t.set_pos key (pos_of t slot i)

(* the slot and index [pos] names, checked to hold an entry *)
let locate t fn pos =
  let n = Array.length t.slots in
  if pos < 0 || pos / n >= t.slots.(pos mod n).len then
    invalid_arg (Printf.sprintf "Timer_wheel.%s: no entry at position %d" fn pos);
  pos mod n

let cancel t ~pos =
  if pos <> no_pos then begin
    let slot = locate t "cancel" pos in
    remove_at t slot t.slots.(slot) (pos / Array.length t.slots)
  end

let key_at t ~pos =
  let slot = locate t "key_at" pos in
  t.slots.(slot).keys.(pos / Array.length t.slots)

let iter t f =
  Array.iteri
    (fun slot s ->
      for i = 0 to s.len - 1 do
        f (pos_of t slot i) s.keys.(i)
      done)
    t.slots

let scheduled t = t.count

(* The swept entries in (deadline, scheduling order), as a list. The
   order is fixed by that key alone, never by the slots' layout, which
   swap-removes permute. *)
let deliver due =
  let m = due.len in
  if m = 0 then []
  else begin
    let ats = due.ats and seqs = due.seqs in
    let order = Array.init m Fun.id in
    Array.sort
      (fun i j ->
        match Float.compare ats.(i) ats.(j) with 0 -> Int.compare seqs.(i) seqs.(j) | c -> c)
      order;
    let l = ref [] in
    for k = m - 1 downto 0 do
      l := due.keys.(order.(k)) :: !l
    done;
    Array.fill due.keys 0 m due.keys.(0);
    due.len <- 0;
    !l
  end

(* Deadlines are delivered when their tick completes, i.e. up to one
   granularity late. The payoff is the fast path: [advance] is called on
   every packet, and while time moves within the current tick it is a
   single integer compare — no slot scan, no allocation. *)
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
    for tick = first to last do
      let slot = tick mod n in
      let s = t.slots.(slot) in
      let i = ref 0 in
      while !i < s.len do
        let at = s.ats.(!i) in
        if int_of_float (at /. t.granularity) <= last then begin
          ignore (push t.due s.keys.(!i) at s.seqs.(!i));
          remove_at t slot s !i
        end
        else incr i
      done
    done;
    t.last_swept <- last;
    deliver t.due
  end

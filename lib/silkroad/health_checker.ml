type dip_state = {
  mutable misses : int;
  mutable marked_down : bool;
}

type t = {
  interval : float;
  threshold : int;
  is_alive : Netcore.Endpoint.t -> bool;
  dips : Netcore.Endpoint.t list;
  states : (Netcore.Endpoint.t, dip_state) Hashtbl.t;
  mutable next_round : float;
}

let create ?(interval = 10.) ?(threshold = 3) ~is_alive ~dips () =
  assert (interval > 0. && threshold >= 1);
  let states = Hashtbl.create (List.length dips) in
  List.iter (fun d -> Hashtbl.replace states d { misses = 0; marked_down = false }) dips;
  { interval; threshold; is_alive; dips; states; next_round = 0. }

let probe_round t =
  List.filter_map
    (fun dip ->
      let st = Hashtbl.find t.states dip in
      if t.is_alive dip then begin
        st.misses <- 0;
        if st.marked_down then begin
          st.marked_down <- false;
          Some (dip, `Up)
        end
        else None
      end
      else begin
        st.misses <- st.misses + 1;
        if (not st.marked_down) && st.misses >= t.threshold then begin
          st.marked_down <- true;
          Some (dip, `Down)
        end
        else None
      end)
    t.dips

let advance t ~now =
  let events = ref [] in
  while t.next_round <= now do
    events := !events @ probe_round t;
    t.next_round <- t.next_round +. t.interval
  done;
  !events

let is_marked_down t dip =
  match Hashtbl.find_opt t.states dip with
  | Some st -> st.marked_down
  | None -> false

let probe_bandwidth_bps ~dips ~interval ~probe_bytes =
  float_of_int (dips * probe_bytes * 8) /. interval

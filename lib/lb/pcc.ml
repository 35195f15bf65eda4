type state = {
  first : Netcore.Endpoint.t option;  (** None when the first packet was dropped *)
  mutable bad : bool;
  mutable excluded : bool;  (** its server went away: no longer judged *)
}

type t = {
  live : (int, state) Hashtbl.t;
  mutable total : int;
  mutable broken : int;
  mutable violations : int;
}

let create () = { live = Hashtbl.create 1024; total = 0; broken = 0; violations = 0 }

type verdict =
  | First
  | Consistent
  | Violation
  | Excluded

let judge t ~flow_id ~dip =
  match Hashtbl.find_opt t.live flow_id with
  | None ->
    t.total <- t.total + 1;
    let bad = dip = None in
    if bad then begin
      t.broken <- t.broken + 1;
      t.violations <- t.violations + 1
    end;
    Hashtbl.replace t.live flow_id { first = dip; bad; excluded = false };
    if bad then Violation else First
  | Some st when st.excluded -> Excluded
  | Some st ->
    let consistent =
      match st.first, dip with
      | Some f, Some d -> Netcore.Endpoint.equal f d
      | None, _ -> false
      | Some _, None -> false
    in
    if not consistent then begin
      t.violations <- t.violations + 1;
      if not st.bad then begin
        st.bad <- true;
        t.broken <- t.broken + 1
      end;
      Violation
    end
    else Consistent

let on_packet t ~flow_id ~dip = ignore (judge t ~flow_id ~dip)

let on_finish t ~flow_id = Hashtbl.remove t.live flow_id

let on_dip_removed t ~dip =
  Hashtbl.iter
    (fun _ st ->
      match st.first with
      | Some d when Netcore.Endpoint.equal d dip -> st.excluded <- true
      | Some _ | None -> ())
    t.live

let total t = t.total
let broken t = t.broken

let violations t = t.violations

(* The flow-indexed refinement of the oracle above: the same transitions
   over a state byte per flow instead of a hashtable of records, so the
   replay engines can judge every packet without allocating.

   Exclusion is lazy. [exclude] appends the retired DIP to the counters'
   log in O(1); each flow remembers the log length when its connection
   was born, and only an inconsistent packet scans the entries logged
   since then. A live flow pinned to a DIP retired during its lifetime
   is excused at its first inconsistent packet — before that it judges
   exactly as an eagerly excluded flow would, since consistent packets
   count nothing either way. *)
module Flat = struct
  let st_live = 1
  let st_excluded = 2
  let st_bad = 4

  (* physically unique (tested with [==]); doubles as the spec's
     [first = None] *)
  let no_dip = Netcore.Endpoint.none

  (* the unboxed primitives: [Bytes.get_int32_ne] is a function, and
     calling it boxes the int32 *)
  external get_born : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
  external set_born : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"

  type t = {
    first : Netcore.Endpoint.t array;
    state : Bytes.t;
    born : Bytes.t;  (** 4 bytes per flow: the log length at its first packet *)
  }

  let create n_flows =
    {
      first = Array.make n_flows no_dip;
      state = Bytes.make n_flows '\000';
      born = Bytes.make (4 * n_flows) '\000';
    }

  let first_dip t = t.first

  type counters = {
    mutable packets : int;
    mutable dropped : int;
    mutable total : int;
    mutable broken : int;
    mutable violations : int;
    mutable retired : Netcore.Endpoint.t array;
    mutable n_retired : int;
  }

  let counters () =
    {
      packets = 0;
      dropped = 0;
      total = 0;
      broken = 0;
      violations = 0;
      retired = [||];
      n_retired = 0;
    }

  (* top-level, so the scan allocates no closure *)
  let rec retired_since c f k =
    k < c.n_retired
    && (Netcore.Endpoint.equal (Array.unsafe_get c.retired k) f || retired_since c f (k + 1))

  let judge t c i dip ~ends =
    c.packets <- c.packets + 1;
    if dip == no_dip then c.dropped <- c.dropped + 1;
    let b = Char.code (Bytes.unsafe_get t.state i) in
    if b land st_live = 0 then begin
      c.total <- c.total + 1;
      let bad = dip == no_dip in
      if bad then begin
        c.broken <- c.broken + 1;
        c.violations <- c.violations + 1
      end;
      Array.unsafe_set t.first i dip;
      set_born t.born (4 * i) (Int32.of_int c.n_retired);
      Bytes.unsafe_set t.state i (Char.unsafe_chr (st_live lor (if bad then st_bad else 0)))
    end
    else if b land st_excluded = 0 then begin
      let f = Array.unsafe_get t.first i in
      let consistent = f != no_dip && dip != no_dip && Netcore.Endpoint.equal f dip in
      if not consistent then begin
        if f != no_dip && retired_since c f (Int32.to_int (get_born t.born (4 * i))) then
          (* its server was retired after the connection began *)
          Bytes.unsafe_set t.state i (Char.unsafe_chr (b lor st_excluded))
        else begin
          c.violations <- c.violations + 1;
          if b land st_bad = 0 then begin
            c.broken <- c.broken + 1;
            Bytes.unsafe_set t.state i (Char.unsafe_chr (b lor st_bad))
          end
        end
      end
    end;
    (* on_finish: drop the tracking state; the counters keep the verdict
       and [first] keeps the assignment for introspection *)
    if ends then Bytes.unsafe_set t.state i '\000'

  let exclude c dip =
    let n = c.n_retired in
    if n = Array.length c.retired then begin
      let grown = Array.make (Int.max 8 (2 * n)) no_dip in
      Array.blit c.retired 0 grown 0 n;
      c.retired <- grown
    end;
    Array.unsafe_set c.retired n dip;
    c.n_retired <- n + 1
end

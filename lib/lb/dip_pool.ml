type t = { members : Netcore.Endpoint.t array }

let of_list l =
  let rec check_dups = function
    | [] -> ()
    | x :: rest ->
      if List.exists (Netcore.Endpoint.equal x) rest then
        invalid_arg "Dip_pool.of_list: duplicate DIP"
      else check_dups rest
  in
  check_dups l;
  { members = Array.of_list l }

let members t = Array.copy t.members
let size t = Array.length t.members
let is_empty t = size t = 0
let mem t d = Array.exists (Netcore.Endpoint.equal d) t.members

(* ECMP-style selection on the flow's seeded hash, derived as an int from
   the tuple's cached hash so the per-packet path allocates nothing *)
let select_flow ~seed t flow =
  if is_empty t then invalid_arg "Dip_pool.select_flow: empty pool";
  t.members.(Netcore.Five_tuple.range ~seed flow (size t))

let add t d =
  if mem t d then invalid_arg "Dip_pool.add: already present";
  { members = Array.append t.members [| d |] }

let remove t d =
  { members = Array.of_list (List.filter (fun x -> not (Netcore.Endpoint.equal x d))
                               (Array.to_list t.members)) }

let replace t ~old_dip ~new_dip =
  if not (mem t old_dip) then invalid_arg "Dip_pool.replace: old DIP absent";
  if mem t new_dip then invalid_arg "Dip_pool.replace: new DIP already present";
  { members = Array.map (fun x -> if Netcore.Endpoint.equal x old_dip then new_dip else x)
                t.members }

let equal a b =
  Array.length a.members = Array.length b.members
  && Array.for_all2 Netcore.Endpoint.equal a.members b.members

let pp ppf t =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_array
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       Netcore.Endpoint.pp)
    t.members

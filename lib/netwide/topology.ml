type node = {
  node_id : int;
  layer_name : string;
  layer_pos : int;
  member : int;
  mutable up : bool;
}

type t = {
  seed : int;
  layers : Silkroad.Assignment.layer list;
  layer_nodes : node array array;
  nodes : node array;
  placement : Silkroad.Assignment.placement;
  vip_layer : int Netcore.Endpoint.Tbl.t;
  vips : (Netcore.Endpoint.t * Lb.Dip_pool.t) list;
  owned : node option array;
}

(* a "mouse" VIP of Feasibility.default_demands: 50 K connections at
   ~40 ConnTable bits each *)
let demands_of_vips vips =
  List.map
    (fun (vip, _) -> { Silkroad.Assignment.vip; conn_bits = 50_000 * 40; traffic_gbps = 1.5 })
    vips

let build ?(seed = 0x7090) ~layers ~vips () =
  if layers = [] then invalid_arg "Netwide.Topology.build: no layers";
  (* a layer with no LB SRAM budget is a pure transit layer: it routes
     but cannot host VIP state, so it stays out of the bin packing *)
  let hosting =
    List.filter (fun (l : Silkroad.Assignment.layer) -> l.Silkroad.Assignment.sram_budget_bits > 0) layers
  in
  if hosting = [] then invalid_arg "Netwide.Topology.build: no layer has LB SRAM";
  let placement, diags =
    Analysis.Feasibility.check_network ~layers:hosting ~vips:(demands_of_vips vips) ()
  in
  if Analysis.Diag.errors diags > 0 then
    invalid_arg
      (Format.asprintf "@[<v>Netwide.Topology.build: infeasible placement:@,%a@]"
         Analysis.Diag.pp_list
         (List.filter (fun d -> d.Analysis.Diag.severity = Analysis.Diag.Error) diags));
  let layer_arr = Array.of_list layers in
  let next_id = ref 0 in
  let layer_nodes =
    Array.mapi
      (fun pos (l : Silkroad.Assignment.layer) ->
        Array.init l.Silkroad.Assignment.switches (fun member ->
            let node_id = !next_id in
            incr next_id;
            { node_id; layer_name = l.Silkroad.Assignment.layer_name; layer_pos = pos; member; up = true }))
      layer_arr
  in
  let nodes = Array.concat (Array.to_list layer_nodes) in
  let pos_of_name name =
    let rec go i = function
      | [] -> None
      | (l : Silkroad.Assignment.layer) :: rest ->
        if String.equal l.Silkroad.Assignment.layer_name name then Some i else go (i + 1) rest
    in
    go 0 layers
  in
  (* the gate above leaves no VIP unplaced *)
  let vip_layer = Netcore.Endpoint.Tbl.create (List.length vips) in
  List.iter
    (fun (vip, lname) ->
      match pos_of_name lname with
      | Some pos -> Netcore.Endpoint.Tbl.replace vip_layer vip pos
      | None -> ())
    placement.Silkroad.Assignment.assignment;
  { seed; layers; layer_nodes; nodes; placement; vip_layer; vips;
    owned = Array.map Option.some nodes }

let n_nodes t = Array.length t.nodes

let find_layer t name =
  let rec go i = function
    | [] -> invalid_arg (Printf.sprintf "Netwide.Topology.find_layer: unknown layer %S" name)
    | (l : Silkroad.Assignment.layer) :: rest ->
      if String.equal l.Silkroad.Assignment.layer_name name then i else go (i + 1) rest
  in
  go 0 t.layers

(* per packet in the netwide replay: [find] allocates no option *)
let layer_of_vip t vip =
  match Netcore.Endpoint.Tbl.find t.vip_layer vip with
  | pos -> pos
  | exception Not_found -> Array.length t.layer_nodes - 1

let move_vip t vip name = Netcore.Endpoint.Tbl.replace t.vip_layer vip (find_layer t name)

let set_up t ~node_id up =
  if node_id < 0 || node_id >= Array.length t.nodes then
    invalid_arg "Netwide.Topology.set_up: bad node id";
  t.nodes.(node_id).up <- up

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  Array.iteri
    (fun pos nodes ->
      let l = List.nth t.layers pos in
      let up = Array.fold_left (fun acc n -> if n.up then acc + 1 else acc) 0 nodes in
      Format.fprintf ppf "%s: %d/%d up@," l.Silkroad.Assignment.layer_name up (Array.length nodes))
    t.layer_nodes;
  Format.fprintf ppf "VIPs: %d placed, %d unplaced@]" (List.length t.vips)
    (List.length t.placement.Silkroad.Assignment.unplaced)

(* Rendezvous (highest-random-weight) hashing per layer: every (flow,
   node) pair gets an independent score, the live node with the highest
   score wins. Removing a node only re-homes the flows it was winning —
   the property the qcheck suite pins ("an Agg failure changes only
   flows that transited the dead switch"). *)

(* A node's score for a flow is [Hashing.seeded ~seed:(node_seed t n) h],
   [h] the flow's [Five_tuple.hash ~seed:t.seed]; [Hashing.seeded_above]
   compares two of them without boxing an int64. *)
let node_seed t (n : Topology.node) = t.Topology.seed + (n.Topology.node_id * 0x9e3779b1)

(* The live node of [layer] with the highest score, or -1: a
   closure-free loop over the layer's nodes that keeps the best one's
   index; a tie keeps the earlier node. *)
let pick_index t ~layer (flow : Netcore.Five_tuple.t) =
  let nodes = t.Topology.layer_nodes.(layer) in
  let best = ref (-1) in
  for i = 0 to Array.length nodes - 1 do
    let n = nodes.(i) in
    if
      n.Topology.up
      && (!best < 0
         || Netcore.Hashing.seeded_above ~seed:t.Topology.seed ~hi:flow.Netcore.Five_tuple.pre_hi
              ~lo:flow.Netcore.Five_tuple.pre_lo ~a:(node_seed t n) ~b:(node_seed t nodes.(!best)))
    then best := i
  done;
  !best

let path t ~vip flow =
  let dest = Topology.layer_of_vip t vip in
  let rec go layer acc =
    if layer > dest then List.rev acc
    else
      match pick_index t ~layer flow with
      | -1 -> List.rev acc
      | i -> go (layer + 1) (t.Topology.layer_nodes.(layer).(i) :: acc)
  in
  go 0 []

(* [path]'s last hop when the path reaches [dest]: every layer down to
   it has a live node, and each layer's pick is independent of the
   others' *)
let rec owner_from t ~dest ~layer flow =
  match pick_index t ~layer flow with
  | -1 -> None
  | i ->
    if layer = dest then t.Topology.owned.(t.Topology.layer_nodes.(layer).(i).Topology.node_id)
    else owner_from t ~dest ~layer:(layer + 1) flow

let owner t ~vip flow = owner_from t ~dest:(Topology.layer_of_vip t vip) ~layer:0 flow

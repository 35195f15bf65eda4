type update =
  | Dip_add of Netcore.Endpoint.t
  | Dip_remove of Netcore.Endpoint.t
  | Dip_replace of {
      old_dip : Netcore.Endpoint.t;
      new_dip : Netcore.Endpoint.t;
    }

type location =
  | Asic
  | Switch_cpu
  | Slb

type reroute = {
  rr_vip : Netcore.Endpoint.t option;
  rr_fraction : float;
  rr_salt : int;
}

type disturbance =
  | Cpu_backlog of int
  | Reroute of reroute

type outcome = {
  dip : Netcore.Endpoint.t option;
  location : location;
}

type t = {
  name : string;
  advance : now:float -> unit;
  process : now:float -> Netcore.Packet.t -> outcome;
  update : now:float -> vip:Netcore.Endpoint.t -> update -> unit;
  connections : unit -> int;
  metrics : unit -> Telemetry.Registry.t;
  disturb : now:float -> disturbance -> unit;
}

let pp_location ppf l =
  Format.pp_print_string ppf
    (match l with Asic -> "asic" | Switch_cpu -> "switch-cpu" | Slb -> "slb")

let pp_update ppf = function
  | Dip_add d -> Format.fprintf ppf "add %a" Netcore.Endpoint.pp d
  | Dip_remove d -> Format.fprintf ppf "remove %a" Netcore.Endpoint.pp d
  | Dip_replace { old_dip; new_dip } ->
    Format.fprintf ppf "replace %a -> %a" Netcore.Endpoint.pp old_dip Netcore.Endpoint.pp new_dip

let reroute_selects r flow =
  let vip_matches =
    match r.rr_vip with
    | None -> true
    | Some vip -> Netcore.Endpoint.equal flow.Netcore.Five_tuple.dst vip
  in
  vip_matches
  && (r.rr_fraction >= 1.
     ||
     Netcore.Five_tuple.range ~seed:r.rr_salt flow 1_000_000
     < int_of_float (r.rr_fraction *. 1_000_000.))

let apply_update pool = function
  | Dip_add d -> Dip_pool.add pool d
  | Dip_remove d -> Dip_pool.remove pool d
  | Dip_replace { old_dip; new_dip } -> Dip_pool.replace pool ~old_dip ~new_dip

type job = {
  update : Lb.Balancer.update;
  requested : float;
  started : float;
  mutable waiting : unit Netcore.Five_tuple.Tbl.t;
  recorded : unit Netcore.Five_tuple.Tbl.t;
}

type phase =
  | Idle
  | Recording of job
  | Dual of {
      old_version : int;
      job : job;
    }

type entry = {
  vip : Netcore.Endpoint.t;
  pools : Dip_pool_table.vip;
  mutable current : int;
  mutable phase : phase;
  queued : (float * Lb.Balancer.update) Queue.t;
  mutable meter : Asic.Meter.t option;
  completed : Telemetry.Registry.Counter.t Lazy.t;
  metered_drops : Telemetry.Registry.Counter.t Lazy.t;
}

type t = {
  entries : entry Netcore.Endpoint.Tbl.t;
  metrics : Telemetry.Registry.t;
}

let create ~metrics = { entries = Netcore.Endpoint.Tbl.create 64; metrics }

let add t vip pools ~version =
  if Netcore.Endpoint.Tbl.mem t.entries vip then invalid_arg "Vip_table.add: VIP exists";
  (* registered on first use, so a VIP that never completes an update
     or drops a packet adds no series to a snapshot *)
  let counter name =
    lazy
      (Telemetry.Registry.counter t.metrics
         ~labels:[ ("vip", Format.asprintf "%a" Netcore.Endpoint.pp vip) ]
         name)
  in
  let e =
    {
      vip;
      pools;
      current = version;
      phase = Idle;
      queued = Queue.create ();
      meter = None;
      completed = counter "switch.vip.updates_completed";
      metered_drops = counter "switch.vip.metered_drops";
    }
  in
  Netcore.Endpoint.Tbl.replace t.entries vip e;
  e

let find t vip = Netcore.Endpoint.Tbl.find t.entries vip
let mem t vip = Netcore.Endpoint.Tbl.mem t.entries vip

let current t vip =
  match find t vip with
  | e -> Some e.current
  | exception Not_found -> None

let remove t e = Netcore.Endpoint.Tbl.remove t.entries e.vip
let iter f t = Netcore.Endpoint.Tbl.iter (fun _ e -> f e) t.entries

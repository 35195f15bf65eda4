type phase =
  | Idle
  | Recording
  | Dual of { old_version : int }

type entry = {
  vip : Netcore.Endpoint.t;
  pools : Dip_pool_table.vip;
  mutable current : int;
  mutable phase : phase;
}

type t = {
  entries : entry Netcore.Endpoint.Tbl.t;
  mutable updating : int;
}

let create () = { entries = Netcore.Endpoint.Tbl.create 64; updating = 0 }

let add t vip pools ~version =
  if Netcore.Endpoint.Tbl.mem t.entries vip then invalid_arg "Vip_table.add: VIP exists";
  let e = { vip; pools; current = version; phase = Idle } in
  Netcore.Endpoint.Tbl.replace t.entries vip e;
  e

let find t vip = Netcore.Endpoint.Tbl.find t.entries vip
let mem t vip = Netcore.Endpoint.Tbl.mem t.entries vip

let current t vip =
  match find t vip with
  | e -> Some e.current
  | exception Not_found -> None

let start_recording t e =
  (match e.phase with
   | Idle -> ()
   | Recording | Dual _ -> invalid_arg "Vip_table.start_recording: update in progress");
  e.phase <- Recording;
  t.updating <- t.updating + 1

let execute e ~new_version =
  (match e.phase with
   | Recording -> ()
   | Idle | Dual _ -> invalid_arg "Vip_table.execute: not recording");
  e.phase <- Dual { old_version = e.current };
  e.current <- new_version

let finish t e =
  (match e.phase with
   | Dual _ -> ()
   | Idle | Recording -> invalid_arg "Vip_table.finish: not in dual phase");
  e.phase <- Idle;
  t.updating <- t.updating - 1

let cancel_recording t e =
  (match e.phase with
   | Recording -> ()
   | Idle | Dual _ -> invalid_arg "Vip_table.cancel_recording: not recording");
  e.phase <- Idle;
  t.updating <- t.updating - 1

let remove t e =
  (match e.phase with
   | Idle -> ()
   | Recording | Dual _ -> invalid_arg "Vip_table.remove: update in progress");
  Netcore.Endpoint.Tbl.remove t.entries e.vip

let updating_count t = t.updating

let iter f t = Netcore.Endpoint.Tbl.iter (fun _ e -> f e) t.entries

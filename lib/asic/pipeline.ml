type resource_class =
  | Crossbar
  | Sram
  | Tcam
  | Vliw
  | Hash
  | Salu
  | Phv

let class_name = function
  | Crossbar -> "match-crossbar"
  | Sram -> "sram"
  | Tcam -> "tcam"
  | Vliw -> "vliw-actions"
  | Hash -> "hash-bits"
  | Salu -> "stateful-alus"
  | Phv -> "phv"

(* the per-stage classes, in the order failures are reported *)
let stage_classes = [ Crossbar; Sram; Tcam; Vliw; Hash; Salu ]

let get (r : Resources.t) = function
  | Crossbar -> r.Resources.match_crossbar_bits
  | Sram -> r.Resources.sram_bits
  | Tcam -> r.Resources.tcam_bits
  | Vliw -> r.Resources.vliw_actions
  | Hash -> r.Resources.hash_bits
  | Salu -> r.Resources.stateful_alus
  | Phv -> r.Resources.phv_bits

type chip = {
  chip_name : string;
  n_stages : int;
  stage_budget : Resources.t;
  chip_phv_bits : int;
  baseline : Resources.t;
}

let tofino_like ~baseline =
  {
    chip_name = "tofino-like (12 stages, 75 MB SRAM)";
    n_stages = 12;
    stage_budget =
      Resources.make ~match_crossbar_bits:640 ~sram_bits:(48 * 1024 * 1024)
        ~tcam_bits:(512 * 1024) ~vliw_actions:16 ~hash_bits:192 ~stateful_alus:4 ();
    chip_phv_bits = 6400;
    baseline;
  }

type item = {
  item_name : string;
  needs : Resources.t;
  after : string list;
  divisible : bool;
}

let item ?(after = []) ?(divisible = false) ~name needs =
  { item_name = name; needs; after; divisible }

let item_of_table ?after ?divisible (spec : Table_spec.t) =
  item ?after ?divisible ~name:spec.Table_spec.name (Table_spec.resources spec)

type failure = {
  failed_item : string;
  failed_class : resource_class option;
  needed : int;
  available : int;
  at_stage : int option;
  spread : bool;
}

type placement = {
  placed : item;
  first_stage : int;
  last_stage : int;
}

type report = {
  chip : chip;
  items : item list;
  placements : placement list;
  per_stage : Resources.t array;
  total_additional : Resources.t;
  phv_used : int;
  failure : failure option;
}

let ceil_div a b = (a + b - 1) / b

(* the baseline program's per-stage share, rounded up so the model errs
   toward caution *)
let baseline_share chip =
  let n = chip.n_stages in
  let b = chip.baseline in
  Resources.make
    ~match_crossbar_bits:(ceil_div b.Resources.match_crossbar_bits n)
    ~sram_bits:(ceil_div b.Resources.sram_bits n)
    ~tcam_bits:(ceil_div b.Resources.tcam_bits n)
    ~vliw_actions:(ceil_div b.Resources.vliw_actions n)
    ~hash_bits:(ceil_div b.Resources.hash_bits n)
    ~stateful_alus:(ceil_div b.Resources.stateful_alus n)
    ()

(* charge [amount] of class [c] to stage [s] *)
let charge per_stage s c amount =
  let r = per_stage.(s) in
  per_stage.(s) <-
    (match c with
     | Crossbar -> { r with Resources.match_crossbar_bits = r.Resources.match_crossbar_bits + amount }
     | Sram -> { r with Resources.sram_bits = r.Resources.sram_bits + amount }
     | Tcam -> { r with Resources.tcam_bits = r.Resources.tcam_bits + amount }
     | Vliw -> { r with Resources.vliw_actions = r.Resources.vliw_actions + amount }
     | Hash -> { r with Resources.hash_bits = r.Resources.hash_bits + amount }
     | Salu -> { r with Resources.stateful_alus = r.Resources.stateful_alus + amount }
     | Phv -> r)

let free chip per_stage s c = get chip.stage_budget c - get per_stage.(s) c

let allocate chip items =
  let n = chip.n_stages in
  if n <= 0 then invalid_arg "Pipeline.allocate: chip has no stages";
  let share = baseline_share chip in
  List.iter
    (fun c ->
      if get share c > get chip.stage_budget c then
        invalid_arg
          (Printf.sprintf "Pipeline.allocate: baseline alone overflows per-stage %s budget"
             (class_name c)))
    stage_classes;
  let per_stage = Array.make n share in
  let placements = ref [] in
  let placed_last : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let failure = ref None in
  (* the stage an item may start in, one past its deepest dependency *)
  let min_stage it =
    List.fold_left
      (fun acc dep ->
        match Hashtbl.find_opt placed_last dep with
        | Some s -> Int.max acc (s + 1)
        | None ->
          invalid_arg
            (Printf.sprintf "Pipeline.allocate: %s depends on %s, which is not placed before it"
               it.item_name dep))
      0 it.after
  in
  (* can stage [s] take the whole of [needs]' per-stage classes? *)
  let fits_whole s needs = List.for_all (fun c -> get needs c <= free chip per_stage s c) stage_classes in
  (* which class can never fit, even in a stage holding only the
     baseline? (per-stage classes only) *)
  let impossible_class needs =
    List.find_opt (fun c -> get needs c > get chip.stage_budget c - get share c) stage_classes
  in
  let fail it = function
    | Some c ->
      failure :=
        Some
          {
            failed_item = it.item_name;
            failed_class = Some c;
            needed = get it.needs c;
            available = get chip.stage_budget c - get share c;
            at_stage = None;
            spread = false;
          }
    | None ->
      failure :=
        Some
          { failed_item = it.item_name; failed_class = None; needed = 1; available = 0;
            at_stage = Some (n - 1); spread = false }
  in
  let place_indivisible it =
    let lo = min_stage it in
    let rec go s =
      if s >= n then begin
        fail it (impossible_class it.needs);
        false
      end
      else if fits_whole s it.needs then begin
        List.iter (fun c -> charge per_stage s c (get it.needs c)) stage_classes;
        placements := { placed = it; first_stage = s; last_stage = s } :: !placements;
        Hashtbl.replace placed_last it.item_name s;
        true
      end
      else go (s + 1)
    in
    go lo
  in
  (* A divisible item spreads its SRAM over as many stages as needed.
     Its match key is matched against every occupied stage's partition
     (crossbar charged per stage); actions, hashing and stateful ALUs
     execute once (charged in the first occupied stage). *)
  let place_divisible it =
    let first_cost = { it.needs with Resources.sram_bits = 0 } in
    let later_cost =
      Resources.make ~match_crossbar_bits:it.needs.Resources.match_crossbar_bits ()
    in
    let lo = min_stage it in
    let remaining = ref it.needs.Resources.sram_bits in
    let first = ref None in
    let last = ref (-1) in
    let s = ref lo in
    let ok = ref true in
    let finished () = !first <> None && !remaining = 0 in
    while (not (finished ())) && !ok do
      if !s >= n then ok := false
      else begin
        let head = !first = None in
        let cost = if head then first_cost else later_cost in
        let sram_room = free chip per_stage !s Sram in
        let take = Int.min !remaining (Int.max 0 sram_room) in
        (* occupy this stage if its fixed costs fit and it contributes
           (head stages may contribute zero SRAM: small tables) *)
        if fits_whole !s cost && (take > 0 || (head && !remaining = 0)) then begin
          List.iter (fun c -> charge per_stage !s c (get cost c)) stage_classes;
          charge per_stage !s Sram take;
          remaining := !remaining - take;
          if head then first := Some !s;
          last := !s
        end;
        incr s
      end
    done;
    if finished () then begin
      let f = Option.get !first in
      placements := { placed = it; first_stage = f; last_stage = !last } :: !placements;
      Hashtbl.replace placed_last it.item_name !last;
      true
    end
    else begin
      (match impossible_class first_cost with
       | Some c -> fail it (Some c)
       | None ->
         (* per-stage costs fit somewhere: SRAM (or stages) ran out *)
         let total_free =
           let acc = ref 0 in
           for st = Int.max lo 0 to n - 1 do
             acc := !acc + Int.max 0 (free chip per_stage st Sram)
           done;
           !acc
         in
         (* [total_free] is what is left after this item's partial
            placement; add back what it grabbed to report the free SRAM
            it actually saw *)
         let free_before = total_free + (it.needs.Resources.sram_bits - !remaining) in
         if !remaining > 0 && it.needs.Resources.sram_bits > free_before then
           failure :=
             Some
               { failed_item = it.item_name; failed_class = Some Sram;
                 needed = it.needs.Resources.sram_bits;
                 available = free_before;
                 at_stage = None; spread = true }
         else fail it None);
      false
    end
  in
  (try
     List.iter
       (fun it ->
         let placed = if it.divisible then place_divisible it else place_indivisible it in
         if not placed then raise Exit)
       items
   with Exit -> ());
  let total_additional = Resources.sum (List.map (fun it -> it.needs) items) in
  let phv_used = chip.baseline.Resources.phv_bits + total_additional.Resources.phv_bits in
  (* chip-wide PHV: checked even when staging succeeded *)
  (match !failure with
   | Some _ -> ()
   | None ->
     if phv_used > chip.chip_phv_bits then
       failure :=
         Some
           {
             failed_item = "metadata (chip-wide PHV)";
             failed_class = Some Phv;
             needed = phv_used;
             available = chip.chip_phv_bits;
             at_stage = None;
             spread = true;
           });
  {
    chip;
    items;
    placements = List.rev !placements;
    per_stage;
    total_additional;
    phv_used;
    failure = !failure;
  }

let pp_failure ppf f =
  match f.failed_class with
  | Some Phv ->
    Format.fprintf ppf "%s: needs %d PHV bits chip-wide, budget %d" f.failed_item f.needed
      f.available
  | Some c ->
    let unit = match c with Sram | Tcam | Crossbar | Hash -> " bits" | _ -> "" in
    if f.spread then
      Format.fprintf ppf "%s: needs %d %s%s, %d free across the pipeline" f.failed_item
        f.needed (class_name c) unit f.available
    else
      Format.fprintf ppf "%s: needs %d %s%s, at most %d available in any stage" f.failed_item
        f.needed (class_name c) unit f.available
  | None ->
    Format.fprintf ppf "%s: no stage left to place it (%d-stage chip exhausted)" f.failed_item
      (match f.at_stage with Some s -> s + 1 | None -> 0)

let pp_report ppf r =
  Format.fprintf ppf "@[<v>pipeline on %s:@," r.chip.chip_name;
  List.iter
    (fun p ->
      if p.first_stage = p.last_stage then
        Format.fprintf ppf "  %-14s stage %d@," p.placed.item_name p.first_stage
      else
        Format.fprintf ppf "  %-14s stages %d-%d@," p.placed.item_name p.first_stage p.last_stage)
    r.placements;
  Array.iteri
    (fun i used ->
      let b = r.chip.stage_budget in
      Format.fprintf ppf "  stage %2d: xbar %d/%d  sram %.1f/%.1f Mb  vliw %d/%d  hash %d/%d  salu %d/%d@,"
        i used.Resources.match_crossbar_bits b.Resources.match_crossbar_bits
        (float_of_int used.Resources.sram_bits /. 1e6)
        (float_of_int b.Resources.sram_bits /. 1e6)
        used.Resources.vliw_actions b.Resources.vliw_actions used.Resources.hash_bits
        b.Resources.hash_bits used.Resources.stateful_alus b.Resources.stateful_alus)
    r.per_stage;
  Format.fprintf ppf "  phv (chip): %d/%d bits@," r.phv_used r.chip.chip_phv_bits;
  (match r.failure with
   | None -> Format.fprintf ppf "  feasible@,"
   | Some f -> Format.fprintf ppf "  INFEASIBLE: %a@," pp_failure f);
  Format.fprintf ppf "@]"

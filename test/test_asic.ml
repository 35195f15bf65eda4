(* Tests for the ASIC substrate: SRAM math, registers, bloom filter,
   cuckoo tables, learning filter, CPU model, meters, ECMP. *)

let check = Alcotest.check
let tc = Alcotest.test_case

(* ---------- Sram ---------- *)

(* SRAM is laid out in 112-bit words *)
let words ~entry_bits ~entries = Asic.Sram.bits_for_entries ~entry_bits ~entries / 112

let sram_packing () =
  check Alcotest.int "4x28 in 112" 1 (words ~entry_bits:28 ~entries:4);
  check Alcotest.int "a fifth 28b entry takes a word" 2 (words ~entry_bits:28 ~entries:5);
  check Alcotest.int "1x112" 2 (words ~entry_bits:112 ~entries:2);
  check Alcotest.int "wide entries span words" 2 (words ~entry_bits:200 ~entries:1);
  check Alcotest.int "words for 10 entries of 28b" 3 (words ~entry_bits:28 ~entries:10);
  check Alcotest.int "zero entries" 0 (words ~entry_bits:28 ~entries:0);
  check Alcotest.int "wide" 20 (words ~entry_bits:200 ~entries:10);
  check Alcotest.int "whole words" 0 (Asic.Sram.bits_for_entries ~entry_bits:28 ~entries:10 mod 112)

let sram_units () =
  check (Alcotest.float 1e-9) "mib" 1.0 (Asic.Sram.mib_of_bits (8 * 1024 * 1024))

let qcheck_sram_words =
  QCheck.Test.make ~name:"word packing covers all entries" ~count:300
    QCheck.(pair (int_range 1 300) (int_range 0 100000))
    (fun (entry_bits, entries) ->
      let words = words ~entry_bits ~entries in
      if entries = 0 then words = 0
      else if entry_bits <= 112 then words * (112 / entry_bits) >= entries
      else words * 112 >= entries * entry_bits)

(* ---------- Register_array ---------- *)

let registers_basic () =
  let r = Asic.Register_array.create ~width_bits:8 ~size:16 () in
  Asic.Register_array.write r 3 255;
  check Alcotest.int "read" 255 (Asic.Register_array.read r 3);
  Asic.Register_array.write r 3 256;
  check Alcotest.int "masked" 0 (Asic.Register_array.read r 3);
  Asic.Register_array.write r 4 7;
  check Alcotest.int "neighbour kept" 0 (Asic.Register_array.read r 3);
  Asic.Register_array.clear r;
  check Alcotest.int "cleared" 0 (Asic.Register_array.read r 4)

(* ---------- Bloom_filter ---------- *)

let bloom_no_false_negative () =
  let b = Asic.Bloom_filter.create ~bits:2048 ~hashes:2 () in
  for i = 0 to 199 do
    Asic.Bloom_filter.add b (Int64.of_int (i * 7919))
  done;
  for i = 0 to 199 do
    check Alcotest.bool "member" true (Asic.Bloom_filter.mem b (Int64.of_int (i * 7919)))
  done

let bloom_clear () =
  let b = Asic.Bloom_filter.create ~bits:256 ~hashes:2 () in
  Asic.Bloom_filter.add b 42L;
  check Alcotest.bool "before" true (Asic.Bloom_filter.mem b 42L);
  Asic.Bloom_filter.clear b;
  check Alcotest.bool "after" false (Asic.Bloom_filter.mem b 42L);
  check Alcotest.int "population" 0 (Asic.Bloom_filter.population b)

let bloom_fp_rate () =
  let b = Asic.Bloom_filter.create ~bits:2048 ~hashes:2 () in
  for i = 0 to 99 do
    Asic.Bloom_filter.add b (Int64.of_int (1_000_000 + i))
  done;
  let fp = ref 0 in
  for i = 0 to 9_999 do
    if Asic.Bloom_filter.mem b (Int64.of_int (5_000_000 + i)) then incr fp
  done;
  check Alcotest.bool "fp rate below 3%" true (!fp < 300);
  check Alcotest.bool "estimate sane" true (Asic.Bloom_filter.false_positive_probability b < 0.05)

(* The TransitTable operating point (256 bytes, k = 2) against the
   analytic false-positive rate (1 - e^(-kn/m))^k: with n = 200 resident
   keys, p ≈ 3.1%; 50k random probes put the observed rate within 2x of
   that with overwhelming margin (the binomial std dev is ~0.08%). *)
let bloom_fp_rate_analytic () =
  let m = 2048 and k = 2 and n = 200 in
  let b = Asic.Bloom_filter.create ~bits:m ~hashes:k () in
  let rng = Random.State.make [| 0xb100; 0xf11e |] in
  for _ = 1 to n do
    Asic.Bloom_filter.add b (Random.State.int64 rng Int64.max_int)
  done;
  let probes = 50_000 in
  let fp = ref 0 in
  for _ = 1 to probes do
    (* negated keys never collide with the non-negative resident set *)
    if Asic.Bloom_filter.mem b (Int64.lognot (Random.State.int64 rng Int64.max_int)) then
      incr fp
  done;
  let analytic =
    (1. -. exp (-.float_of_int (k * n) /. float_of_int m)) ** float_of_int k
  in
  let observed = float_of_int !fp /. float_of_int probes in
  check Alcotest.bool
    (Printf.sprintf "observed %.4f within 2x of analytic %.4f" observed analytic)
    true
    (observed >= analytic /. 2. && observed <= analytic *. 2.)

let qcheck_bloom_membership =
  QCheck.Test.make ~name:"bloom never forgets" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 100) int64)
    (fun keys ->
      let b = Asic.Bloom_filter.create ~bits:4096 ~hashes:3 () in
      List.iter (Asic.Bloom_filter.add b) keys;
      List.for_all (Asic.Bloom_filter.mem b) keys)

(* ---------- Cuckoo ---------- *)

module Int_key = struct
  type t = int

  let equal = Int.equal
  let range ~seed x n = Netcore.Hashing.to_range (Netcore.Hashing.seeded ~seed (Int64.of_int x)) n
  let bits ~seed x k =
    Netcore.Hashing.truncate_bits (Netcore.Hashing.seeded ~seed (Int64.of_int x)) k
end

module IC = Asic.Cuckoo.Make (Int_key)

let cuckoo_insert_find () =
  let t = IC.create ~digest_bits:16 ~key_of:Fun.id ~stages:2 ~rows_per_stage:64 ~ways:4 () in
  for i = 0 to 99 do
    match IC.insert t i (i * 10) with
    | Ok _ -> ()
    | Error `Full -> Alcotest.fail "table full too early"
    | Error `Duplicate -> Alcotest.fail "spurious duplicate"
  done;
  check Alcotest.int "size" 100 (IC.size t);
  for i = 0 to 99 do
    match IC.lookup t i with
    | Some hit ->
      check Alcotest.bool "exact" true hit.IC.exact;
      check Alcotest.int "value" (i * 10) hit.IC.value
    | None -> Alcotest.fail (Printf.sprintf "lost key %d" i)
  done

let cuckoo_duplicate () =
  let t = IC.create ~digest_bits:16 ~key_of:Fun.id ~stages:2 ~rows_per_stage:16 ~ways:2 () in
  (match IC.insert t 1 10 with Ok _ -> () | Error _ -> Alcotest.fail "first insert");
  match IC.insert t 1 20 with
  | Error `Duplicate -> ()
  | Ok _ | Error `Full -> Alcotest.fail "expected duplicate"

let cuckoo_remove () =
  let t = IC.create ~digest_bits:16 ~key_of:Fun.id ~stages:2 ~rows_per_stage:16 ~ways:2 () in
  ignore (IC.insert t 5 50);
  check Alcotest.bool "present" true (IC.mem_exact t 5);
  check Alcotest.bool "removed" true (IC.remove t 5);
  check Alcotest.bool "absent" false (IC.mem_exact t 5);
  check Alcotest.bool "remove again" false (IC.remove t 5);
  check Alcotest.int "size" 0 (IC.size t)

let cuckoo_high_occupancy () =
  let t = IC.create ~digest_bits:16 ~key_of:Fun.id ~stages:4 ~rows_per_stage:64 ~ways:4 () in
  let cap = IC.capacity t in
  let inserted = ref 0 in
  (try
     for i = 0 to cap - 1 do
       match IC.insert t i i with
       | Ok _ -> incr inserted
       | Error `Full -> raise Exit
       | Error `Duplicate -> Alcotest.fail "duplicate"
     done
   with Exit -> ());
  check Alcotest.bool
    (Printf.sprintf "occupancy %.2f >= 0.9" (IC.occupancy t))
    true
    (float_of_int !inserted /. float_of_int cap >= 0.9)

let cuckoo_relocate () =
  let t = IC.create ~digest_bits:16 ~key_of:Fun.id ~stages:3 ~rows_per_stage:64 ~ways:2 () in
  for i = 0 to 50 do
    ignore (IC.insert t i i)
  done;
  match IC.stage_of_exact t 7 with
  | None -> Alcotest.fail "key 7 missing"
  | Some s ->
    (match IC.relocate t 7 ~forbid_stages:[ s ] with
     | Ok _ ->
       (match IC.stage_of_exact t 7 with
        | Some s' -> check Alcotest.bool "moved out" true (s' <> s)
        | None -> Alcotest.fail "lost during relocate")
     | Error `Full -> Alcotest.fail "relocate full"
     | Error `Not_found -> Alcotest.fail "relocate not found");
    (match IC.find_exact t 7 with
     | Some v -> check Alcotest.int "value preserved" 7 v
     | None -> Alcotest.fail "value lost")

let cuckoo_relocate_missing () =
  let t = IC.create ~digest_bits:16 ~key_of:Fun.id ~stages:2 ~rows_per_stage:8 ~ways:2 () in
  match IC.relocate t 42 ~forbid_stages:[ 0 ] with
  | Error `Not_found -> ()
  | Ok _ | Error `Full -> Alcotest.fail "expected Not_found"

let cuckoo_forbid_stage () =
  let t = IC.create ~digest_bits:16 ~key_of:Fun.id ~stages:3 ~rows_per_stage:64 ~ways:2 () in
  for i = 0 to 30 do
    match IC.insert ~forbid_stages:[ 0 ] t i i with
    | Ok _ ->
      (match IC.stage_of_exact t i with
       | Some s -> check Alcotest.bool "not in stage 0" true (s <> 0)
       | None -> Alcotest.fail "missing")
    | Error _ -> Alcotest.fail "insert failed"
  done

let qcheck_cuckoo_model =
  QCheck.Test.make ~name:"cuckoo table = reference map" ~count:60
    QCheck.(list (pair (int_bound 500) bool))
    (fun ops ->
      let t = IC.create ~digest_bits:16 ~key_of:Fun.id ~stages:3 ~rows_per_stage:128 ~ways:4 () in
      let model = Hashtbl.create 64 in
      List.iter
        (fun (k, ins) ->
          if ins then begin
            match IC.insert t k k with
            | Ok _ -> Hashtbl.replace model k k
            | Error `Duplicate -> ()
            | Error `Full -> ()
          end
          else begin
            let removed = IC.remove t k in
            let expected = Hashtbl.mem model k in
            if removed <> expected then failwith "remove disagreed";
            Hashtbl.remove model k
          end)
        ops;
      Hashtbl.length model = IC.size t
      && Hashtbl.fold (fun k v acc -> acc && IC.find_exact t k = Some v) model true)

let qcheck_cuckoo_moves_preserve =
  QCheck.Test.make ~name:"evictions never lose entries" ~count:20
    QCheck.(int_range 100 400)
    (fun n ->
      let t = IC.create ~digest_bits:16 ~key_of:Fun.id ~stages:2 ~rows_per_stage:64 ~ways:4 () in
      let kept = ref [] in
      for i = 0 to n - 1 do
        match IC.insert t i i with
        | Ok _ -> kept := i :: !kept
        | Error _ -> ()
      done;
      List.for_all (fun k -> IC.find_exact t k = Some k) !kept)

let cuckoo_digest_mode () =
  let t = IC.create ~digest_bits:8 ~key_of:Fun.id ~stages:2 ~rows_per_stage:256 ~ways:4 () in
  for i = 0 to 499 do
    ignore (IC.insert t i i)
  done;
  for i = 0 to 499 do
    match IC.lookup t i with
    | Some _ -> ()
    | None -> Alcotest.fail "digest lookup lost a key"
  done;
  let fp = ref 0 in
  for i = 10_000 to 30_000 do
    match IC.lookup t i with
    | Some hit when not hit.IC.exact -> incr fp
    | Some _ | None -> ()
  done;
  check Alcotest.bool "some false positives with 8-bit digest" true (!fp > 0)

let cuckoo_probe_positions () =
  let t = IC.create ~digest_bits:8 ~key_of:Fun.id ~stages:3 ~rows_per_stage:64 ~ways:2 () in
  let ps = IC.probe_positions t 42 in
  check Alcotest.int "one per stage" 3 (List.length ps);
  List.iteri
    (fun i (s, row, d) ->
      check Alcotest.int "stage index" i s;
      check Alcotest.bool "row bounded" true (row >= 0 && row < 64);
      check Alcotest.bool "digest bounded" true (d >= 0 && d < 256))
    ps;
  (* deterministic *)
  check Alcotest.bool "stable" true (ps = IC.probe_positions t 42)

let cuckoo_placement_filter_respected () =
  let t = IC.create ~digest_bits:16 ~key_of:Fun.id ~stages:3 ~rows_per_stage:64 ~ways:2 () in
  (* forbid stage 1 entirely via the filter *)
  IC.set_placement_filter t (Some (fun _ ~stage ~row:_ -> stage <> 1));
  for i = 0 to 60 do
    match IC.insert t i i with
    | Ok _ ->
      (match IC.stage_of_exact t i with
       | Some s -> check Alcotest.bool "never stage 1" true (s <> 1)
       | None -> Alcotest.fail "lost")
    | Error `Full -> ()
    | Error `Duplicate -> Alcotest.fail "dup"
  done;
  (* clearing the filter restores stage 1 *)
  IC.set_placement_filter t None;
  let landed_in_1 = ref false in
  for i = 100 to 400 do
    (match IC.insert t i i with
     | Ok _ -> if IC.stage_of_exact t i = Some 1 then landed_in_1 := true
     | Error _ -> ())
  done;
  check Alcotest.bool "stage 1 usable again" true !landed_in_1

(* ---------- Cuckoo: flat vs boxed differential ---------- *)

module ICB = Cuckoo_boxed.Make (Int_key)

(* An insert that exhausts the BFS budget must fail cleanly: report
   table-full after exactly the budget's expansions and leave the table
   untouched. The table is large enough that the search runs out of
   budget before it runs out of rows. *)
let cuckoo_bfs_boundary () =
  (* [Asic.Cuckoo]'s fixed per-insert BFS budget *)
  let max_bfs_nodes = 4096 in
  let t = IC.create ~digest_bits:16 ~key_of:Fun.id ~stages:2 ~rows_per_stage:4096 ~ways:4 () in
  let kept = ref [] in
  let failed_expansions = ref None in
  (try
     for i = 0 to IC.capacity t - 1 do
       let before = IC.bfs_expansions t in
       match IC.insert t i i with
       | Ok _ -> kept := i :: !kept
       | Error `Full ->
         failed_expansions := Some (IC.bfs_expansions t - before);
         raise Exit
       | Error `Duplicate -> Alcotest.fail "duplicate"
     done
   with Exit -> ());
  (match !failed_expansions with
   | None -> Alcotest.fail "table never filled"
   | Some n -> check Alcotest.int "failed insert ran the BFS to its budget" max_bfs_nodes n);
  check Alcotest.int "one failed insert" 1 (IC.failed_inserts t);
  check Alcotest.bool
    (Printf.sprintf "occupancy at first failure %.3f >= 0.8" (IC.occupancy t))
    true
    (IC.occupancy t >= 0.8);
  check Alcotest.int "failed insert did not change size" (List.length !kept) (IC.size t);
  List.iter
    (fun k ->
      match IC.find_exact t k with
      | Some v -> check Alcotest.int "kept value" k v
      | None -> Alcotest.fail (Printf.sprintf "failed insert lost resident key %d" k))
    !kept

type cuckoo_op =
  | Insert of int
  | Remove of int
  | Relocate of int * int list  (** key and its forbidden stages *)

let show_cuckoo_op = function
  | Insert k -> Printf.sprintf "insert %d" k
  | Remove k -> Printf.sprintf "remove %d" k
  | Relocate (k, forbid) ->
    Printf.sprintf "relocate %d [%s]" k (String.concat ";" (List.map string_of_int forbid))

(* Streams over 601 keys on the 3 x 64 x 2 table below: inserts
   outweigh removals, so the table fills, kicks and fails inserts;
   relocations forbid a random subset of the three stages. *)
let arb_cuckoo_ops ~max_len =
  let open QCheck.Gen in
  let key = int_bound 600 in
  let stages_of_mask mask = List.filter (fun s -> mask land (1 lsl s) <> 0) [ 0; 1; 2 ] in
  let op =
    frequency
      [
        (3, map (fun k -> Insert k) key);
        (1, map (fun k -> Remove k) key);
        (1, map2 (fun k mask -> Relocate (k, stages_of_mask mask)) key (int_bound 7));
      ]
  in
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map show_cuckoo_op ops))
    (list_size (int_range 50 max_len) op)

(* Same op sequence through the SoA table and the boxed reference: the
   greedy-kick scan order is the boxed BFS's pop order, so placements,
   move counts, sizes, stage assignments and hardware lookups must be
   identical — the reference the flat insert ladder and probe loop are
   checked against. *)
let layout_differential ~digest_bits ?placement_filter ops =
  let tf = IC.create ~digest_bits ~key_of:Fun.id ~stages:3 ~rows_per_stage:64 ~ways:2 () in
  let tb = ICB.create ~digest_bits ~stages:3 ~rows_per_stage:64 ~ways:2 () in
  (match placement_filter with
   | None -> ()
   | Some f ->
     IC.set_placement_filter tf (Some f);
     ICB.set_placement_filter tb (Some f));
  let same_lookup k =
    match (IC.lookup tf k, ICB.lookup tb k) with
    | None, None -> true
    | Some f, Some b ->
      f.IC.stage = b.ICB.stage && f.IC.exact = b.ICB.exact && f.IC.value = b.ICB.value
    | Some _, None | None, Some _ -> false
  in
  let same_op = function
    | Insert k -> IC.insert tf k k = ICB.insert tb k k
    | Remove k -> IC.remove tf k = ICB.remove tb k
    | Relocate (k, forbid_stages) ->
      IC.relocate tf k ~forbid_stages = ICB.relocate tb k ~forbid_stages
  in
  let same_after k =
    IC.size tf = ICB.size tb
    && IC.stage_of_exact tf k = ICB.stage_of_exact tb k
    && IC.find_exact tf k = ICB.find_exact tb k
    && same_lookup k
  in
  let ok =
    List.for_all
      (fun op ->
        let k = match op with Insert k | Remove k | Relocate (k, _) -> k in
        let same = same_op op && same_after k in
        if not same then Printf.printf "diverged at %s\n%!" (show_cuckoo_op op);
        same)
      ops
  in
  ok
  && List.for_all same_lookup (List.init 601 Fun.id)
  && IC.moves tf = ICB.moves tb
  && IC.failed_inserts tf = ICB.failed_inserts tb

let qcheck_flat_boxed_differential =
  QCheck.Test.make ~name:"flat and boxed layouts place identically" ~count:60
    (arb_cuckoo_ops ~max_len:500)
    (fun ops -> layout_differential ~digest_bits:16 ops && layout_differential ~digest_bits:8 ops)

let qcheck_flat_boxed_differential_filtered =
  QCheck.Test.make ~name:"flat and boxed layouts place identically under a placement filter"
    ~count:40 (arb_cuckoo_ops ~max_len:400)
    (fun ops ->
      (* the filter ConnTable actually installs: veto some (stage, row)
         cells as a pure predicate of the key *)
      let placement_filter k ~stage ~row = (k + stage + row) mod 7 <> 0 in
      layout_differential ~digest_bits:16 ~placement_filter ops
      && layout_differential ~digest_bits:8 ~placement_filter ops)

(* The greedy depth-1 kick pass must actually fire on the flat layout
   and count its kicks into [moves] exactly as the boxed BFS counts the
   same depth-1 moves, without changing outcomes. *)
let cuckoo_greedy_kicks_counter () =
  let t = IC.create ~digest_bits:16 ~key_of:Fun.id ~stages:2 ~rows_per_stage:64 ~ways:4 () in
  let tb = ICB.create ~digest_bits:16 ~stages:2 ~rows_per_stage:64 ~ways:4 () in
  (try
     for i = 0 to IC.capacity t - 1 do
       let rf = IC.insert t i i and rb = ICB.insert tb i i in
       if rf <> rb then Alcotest.fail "layouts diverged";
       match rf with Error `Full -> raise Exit | Ok _ | Error `Duplicate -> ()
     done
   with Exit -> ());
  check Alcotest.bool
    (Printf.sprintf "flat greedy kicks %d > 0" (IC.greedy_kicks t))
    true (IC.greedy_kicks t > 0);
  check Alcotest.int "kicks count into moves" (ICB.moves tb) (IC.moves t)

(* A slot is one int word: the digest in its low 31 bits, the value
   above them. Values outside [0, 2^31) are refused before the table is
   touched, and the widest value, 2^31 - 1, comes back intact from every
   path that reads or rewrites a word: the hardware lookup, the
   software lookup, a greedy kick, a BFS move and a failed relocation's
   rollback. Each key [k] carries [max_value - k], so a value read from
   the wrong slot shows too. *)
let cuckoo_value_contract () =
  let max_value = (1 lsl 31) - 1 in
  List.iter
    (fun digest_bits ->
      let name s = Printf.sprintf "%d-bit: %s" digest_bits s in
      let t = IC.create ~digest_bits ~key_of:Fun.id ~stages:2 ~rows_per_stage:16 ~ways:1 () in
      List.iter
        (fun v ->
          match IC.insert t 0 v with
          | exception Invalid_argument _ -> ()
          | _ -> Alcotest.fail (name (Printf.sprintf "value %d accepted" v)))
        [ -1; min_int; 1 lsl 31; max_int ];
      check Alcotest.int (name "refused inserts leave the table empty") 0 (IC.size t);
      let kept = ref [] in
      (try
         for k = 0 to IC.capacity t - 1 do
           match IC.insert t k (max_value - k) with
           | Ok _ -> kept := k :: !kept
           | Error `Full -> raise Exit
           | Error `Duplicate -> Alcotest.fail (name "duplicate")
         done
       with Exit -> ());
      check Alcotest.bool (name "a greedy kick ran") true (IC.greedy_kicks t > 0);
      check Alcotest.bool (name "the BFS moved an entry") true
        (IC.moves t > IC.greedy_kicks t && IC.bfs_expansions t > 0);
      let intact k =
        IC.find_exact t k = Some (max_value - k)
        &&
        match IC.lookup t k with
        | Some h -> h.IC.exact && h.IC.handle = k && h.IC.value = max_value - k
        | None -> false
      in
      List.iter
        (fun k -> check Alcotest.bool (name (Printf.sprintf "key %d intact" k)) true (intact k))
        !kept;
      check Alcotest.bool (name "key 0 holds 2^31 - 1") true
        (List.mem 0 !kept && IC.find_exact t 0 = Some max_value);
      (* no stage is allowed, so the reinsert fails and rolls back *)
      let size = IC.size t and stage = IC.stage_of_exact t 0 in
      (match IC.relocate t 0 ~forbid_stages:[ 0; 1 ] with
       | Error `Full -> ()
       | Ok _ | Error `Not_found -> Alcotest.fail (name "relocate to no stage succeeded"));
      check Alcotest.int (name "rollback keeps the size") size (IC.size t);
      check Alcotest.(option int) (name "rollback keeps the stage") stage (IC.stage_of_exact t 0);
      check Alcotest.bool (name "2^31 - 1 survives the rollback") true (intact 0))
    [ 16; 30 ]

(* ---------- Learning_filter ---------- *)

(* The learning filter is keyed on 5-tuples; [key i] is a distinct
   tuple per source port [i]. *)
let key i =
  Netcore.Five_tuple.make ~src:(Netcore.Endpoint.v4 10 0 0 1 i)
    ~dst:(Netcore.Endpoint.v4 20 0 0 1 80) ~proto:Netcore.Protocol.Tcp

let tuple_t = Alcotest.testable Netcore.Five_tuple.pp Netcore.Five_tuple.equal
let ka = key 1
let kb = key 2
let kc = key 3

let learning_dedup () =
  let f = Asic.Learning_filter.create ~capacity:8 ~timeout:0.001 () in
  check Alcotest.bool "accept" true (Asic.Learning_filter.offer f ~now:0. ka () = `Accepted);
  check Alcotest.bool "dup" true (Asic.Learning_filter.offer f ~now:0. ka () = `Duplicate);
  check Alcotest.int "pending" 1 (Asic.Learning_filter.pending f)

let learning_overflow () =
  let metrics = Telemetry.Registry.create () in
  let f = Asic.Learning_filter.create ~metrics ~capacity:2 ~timeout:1. () in
  ignore (Asic.Learning_filter.offer f ~now:0. ka ());
  ignore (Asic.Learning_filter.offer f ~now:0. kb ());
  check Alcotest.bool "dropped" true (Asic.Learning_filter.offer f ~now:0. kc () = `Dropped);
  check Alcotest.int "drop count" 1 (Telemetry.Registry.counter_value metrics "learning.dropped")

let learning_timeout () =
  let f = Asic.Learning_filter.create ~capacity:100 ~timeout:0.5 () in
  ignore (Asic.Learning_filter.offer f ~now:1. ka ());
  check Alcotest.bool "not due yet" false (Asic.Learning_filter.due f ~now:1.2);
  check Alcotest.bool "due at deadline" true (Asic.Learning_filter.due f ~now:1.5);
  (match Asic.Learning_filter.next_deadline f with
   | Some d -> check (Alcotest.float 1e-9) "deadline" 1.5 d
   | None -> Alcotest.fail "no deadline");
  let batch = Asic.Learning_filter.drain f in
  check Alcotest.int "batch size" 1 (List.length batch);
  check Alcotest.int "empty after drain" 0 (Asic.Learning_filter.pending f);
  check Alcotest.bool "re-offer accepted" true
    (Asic.Learning_filter.offer f ~now:2. ka () = `Accepted)

(* the payload travels with the event: here the key itself *)
let learning_drain_order () =
  let f = Asic.Learning_filter.create ~capacity:10 ~timeout:1. () in
  ignore (Asic.Learning_filter.offer f ~now:0. ka ka);
  ignore (Asic.Learning_filter.offer f ~now:0.1 kb kb);
  ignore (Asic.Learning_filter.offer f ~now:0.2 kc kc);
  check (Alcotest.list tuple_t) "fifo" [ ka; kb; kc ] (Asic.Learning_filter.drain f)

(* ---------- Switch_cpu ---------- *)

let cpu_rate () =
  let metrics = Telemetry.Registry.create () in
  let cpu = Asic.Switch_cpu.create ~metrics ~insertions_per_sec:1000. () in
  let t1 = Asic.Switch_cpu.submit cpu ~now:0. ~work_items:100 in
  check (Alcotest.float 1e-9) "100 items at 1k/s" 0.1 t1;
  let t2 = Asic.Switch_cpu.submit cpu ~now:0. ~work_items:100 in
  check (Alcotest.float 1e-9) "queued" 0.2 t2;
  let t3 = Asic.Switch_cpu.submit cpu ~now:1. ~work_items:100 in
  check (Alcotest.float 1e-9) "idle restart" 1.1 t3;
  check Alcotest.int "total" 300 (Telemetry.Registry.counter_value metrics "switch_cpu.work_items")

(* ---------- Meter ---------- *)

let meter_colors () =
  let m = Asic.Meter.create ~cir:1000. ~cbs:1000 ~eir:1000. ~ebs:1000 in
  check Alcotest.bool "green" true (Asic.Meter.mark m ~now:0. ~bytes:1000 = Asic.Meter.Green);
  check Alcotest.bool "yellow" true (Asic.Meter.mark m ~now:0. ~bytes:1000 = Asic.Meter.Yellow);
  check Alcotest.bool "red" true (Asic.Meter.mark m ~now:0. ~bytes:1000 = Asic.Meter.Red);
  check Alcotest.bool "green after refill" true
    (Asic.Meter.mark m ~now:0.5 ~bytes:400 = Asic.Meter.Green)

let meter_accuracy () =
  let m = Asic.Meter.create ~cir:1_000_000. ~cbs:10_000 ~eir:1_000_000. ~ebs:10_000 in
  let green = ref 0 and total = ref 0 in
  let dt = 0.0005 in
  for i = 0 to 19_999 do
    let bytes = 1000 in
    total := !total + bytes;
    if Asic.Meter.mark m ~now:(float_of_int i *. dt) ~bytes = Asic.Meter.Green then
      green := !green + bytes
  done;
  let share = float_of_int !green /. float_of_int !total in
  check Alcotest.bool (Printf.sprintf "green share %.3f in [0.49,0.53]" share) true
    (share >= 0.49 && share <= 0.53)

(* ---------- Ecmp ---------- *)

let ecmp_select_uniform () =
  let members = Array.init 8 (fun i -> i) in
  let counts = Array.make 8 0 in
  for i = 0 to 7999 do
    let h = Netcore.Hashing.seeded ~seed:1 (Int64.of_int i) in
    let m = Asic.Ecmp.select members h in
    counts.(m) <- counts.(m) + 1
  done;
  Array.iter
    (fun c -> check Alcotest.bool "within 30% of fair share" true (c > 700 && c < 1300))
    counts

let resilient_only_moves_removed () =
  let members = Array.init 8 (fun i -> i) in
  let r = Asic.Ecmp.resilient ~slots_per_member:64 members in
  let r' = Asic.Ecmp.resilient_remove ~equal:Int.equal r 3 in
  let moved = ref 0 and total = 20_000 in
  for i = 0 to total - 1 do
    let h = Netcore.Hashing.seeded ~seed:2 (Int64.of_int i) in
    let before = Asic.Ecmp.resilient_select r h in
    let after = Asic.Ecmp.resilient_select r' h in
    if before <> after then begin
      incr moved;
      check Alcotest.int "only flows of removed member move" 3 before
    end
  done;
  check Alcotest.bool "moved share ~1/8" true
    (let s = float_of_int !moved /. float_of_int total in
     s > 0.08 && s < 0.17)

(* ---------- Timer_wheel ---------- *)

(* The wheel's payloads keep their own position, as the switch's
   connection records do; [reschedule] is the cancel-then-schedule a
   moved deadline takes. *)
type aged = {
  id : int;
  mutable pos : int;
}

let aged id = { id; pos = Asic.Timer_wheel.no_pos }
let wheel ~granularity ~slots =
  Asic.Timer_wheel.create ~set_pos:(fun e p -> e.pos <- p) ~granularity ~slots ()

let ids = List.map (fun e -> e.id)

let reschedule w e ~at =
  Asic.Timer_wheel.cancel w ~pos:e.pos;
  Asic.Timer_wheel.schedule w ~key:e ~at

let ids_t = Alcotest.(list int)

let wheel_fires_on_time () =
  let w = wheel ~granularity:1. ~slots:8 in
  let a = aged 1 and b = aged 2 in
  Asic.Timer_wheel.schedule w ~key:a ~at:3.;
  Asic.Timer_wheel.schedule w ~key:b ~at:5.;
  check ids_t "nothing early" [] (ids (Asic.Timer_wheel.advance w ~now:2.));
  (* delivery is at tick precision: a@3 fires once its tick completes *)
  check ids_t "tick not complete" [] (ids (Asic.Timer_wheel.advance w ~now:3.5));
  check ids_t "a fires" [ 1 ] (ids (Asic.Timer_wheel.advance w ~now:4.));
  check Alcotest.int "a gone: its position is cleared" Asic.Timer_wheel.no_pos a.pos;
  check Alcotest.bool "b still at its position" true
    (Asic.Timer_wheel.key_at w ~pos:b.pos == b);
  check ids_t "b fires" [ 2 ] (ids (Asic.Timer_wheel.advance w ~now:10.))

let wheel_reschedule_replaces () =
  let w = wheel ~granularity:1. ~slots:8 in
  let a = aged 1 in
  Asic.Timer_wheel.schedule w ~key:a ~at:2.;
  reschedule w a ~at:6.;
  check Alcotest.int "one entry" 1 (Asic.Timer_wheel.scheduled w);
  check ids_t "old deadline dead" [] (ids (Asic.Timer_wheel.advance w ~now:3.));
  check ids_t "new deadline fires" [ 1 ] (ids (Asic.Timer_wheel.advance w ~now:7.))

(* Cancel is a swap-remove: the slot's last entry takes the hole and
   its new position is reported to it. *)
let wheel_cancel () =
  let w = wheel ~granularity:1. ~slots:4 in
  let a = aged 1 and b = aged 2 and c = aged 3 in
  List.iter (fun e -> Asic.Timer_wheel.schedule w ~key:e ~at:1.) [ a; b; c ];
  let a_pos = a.pos in
  Asic.Timer_wheel.cancel w ~pos:a_pos;
  check Alcotest.int "cancelled position cleared" Asic.Timer_wheel.no_pos a.pos;
  check Alcotest.int "the last entry moved into the hole" a_pos c.pos;
  check Alcotest.bool "moved entry found at its new position" true
    (Asic.Timer_wheel.key_at w ~pos:c.pos == c);
  check Alcotest.bool "untouched entry stays" true (Asic.Timer_wheel.key_at w ~pos:b.pos == b);
  Asic.Timer_wheel.cancel w ~pos:a.pos;
  check Alcotest.int "cancelling no_pos is a no-op" 2 (Asic.Timer_wheel.scheduled w);
  Asic.Timer_wheel.cancel w ~pos:c.pos;
  check ids_t "cancelled" [ 2 ] (ids (Asic.Timer_wheel.advance w ~now:5.));
  check Alcotest.bool "an empty position is rejected" true
    (match Asic.Timer_wheel.cancel w ~pos:a_pos with
     | () -> false
     | exception Invalid_argument _ -> true)

let wheel_beyond_revolution () =
  (* a deadline further than one revolution must survive sweeps *)
  let w = wheel ~granularity:1. ~slots:4 in
  Asic.Timer_wheel.schedule w ~key:(aged 4) ~at:11.;
  check ids_t "pass 1" [] (ids (Asic.Timer_wheel.advance w ~now:5.));
  check ids_t "pass 2" [] (ids (Asic.Timer_wheel.advance w ~now:9.));
  check ids_t "finally" [ 4 ] (ids (Asic.Timer_wheel.advance w ~now:12.))

(* Equal deadlines leave the wheel in the order they were scheduled (a
   re-scheduled payload counts from its last schedule), whatever the
   slot vector's layout; earlier deadlines still come first. *)
let wheel_equal_deadlines_in_schedule_order () =
  let w = wheel ~granularity:1. ~slots:8 in
  let order = [ 17; 3; 42; 8; 25; 1; 30; 12 ] in
  let entries = List.map (fun i -> (i, aged i)) order in
  List.iter (fun (_, e) -> Asic.Timer_wheel.schedule w ~key:e ~at:2.5) entries;
  Asic.Timer_wheel.schedule w ~key:(aged 99) ~at:2.25;
  (* re-scheduling at the same deadline moves a payload to the back *)
  reschedule w (List.assoc 3 entries) ~at:2.5;
  check ids_t "deadline, then schedule order"
    [ 99; 17; 42; 8; 25; 1; 30; 12; 3 ]
    (ids (Asic.Timer_wheel.advance w ~now:3.))

let qcheck_wheel_delivers_all =
  QCheck.Test.make ~name:"wheel delivers everything exactly once, in order" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 40) (pair small_int (float_bound_inclusive 50.)))
    (fun entries ->
      let w = wheel ~granularity:0.7 ~slots:8 in
      (* last write wins per payload: a repeat reschedules it *)
      let model = Hashtbl.create 16 and payloads = Hashtbl.create 16 in
      List.iter
        (fun (k, at) ->
          let e =
            match Hashtbl.find_opt payloads k with
            | Some e -> e
            | None ->
              let e = aged k in
              Hashtbl.replace payloads k e;
              e
          in
          reschedule w e ~at;
          Hashtbl.replace model k at)
        entries;
      let fired = ids (Asic.Timer_wheel.advance w ~now:100.) in
      let sorted_ok =
        let rec go last = function
          | [] -> true
          | k :: rest ->
            let at = Hashtbl.find model k in
            at >= last -. 1e-9 && go at rest
        in
        go neg_infinity fired
      in
      List.length fired = Hashtbl.length model
      && List.for_all (Hashtbl.mem model) fired
      && sorted_ok
      && Asic.Timer_wheel.scheduled w = 0)

(* The documented delivery bound, call by call: a payload due at [at]
   fires in the first [advance] with [now >= (floor (at / g) + 1) * g] —
   never earlier, never a call later. Power-of-two granularities keep
   [at / g] exact; few slots push deadlines several revolutions out. *)
let qcheck_wheel_delivery_bound =
  QCheck.Test.make ~name:"wheel fires each key in the first call past its tick" ~count:200
    QCheck.(
      triple (int_range 0 3)
        (list_of_size (Gen.int_range 1 30) (float_bound_inclusive 40.))
        (list_of_size (Gen.int_range 1 30) (float_bound_inclusive 6.)))
    (fun (g_exp, deadlines, steps) ->
      let g = Float.ldexp 1. (g_exp - 2) in
      let w = wheel ~granularity:g ~slots:4 in
      List.iteri (fun k at -> Asic.Timer_wheel.schedule w ~key:(aged k) ~at) deadlines;
      (* non-decreasing call times; the last one clears every deadline *)
      let rev = List.fold_left (fun acc dt -> (List.hd acc +. dt) :: acc) [ 0. ] steps in
      let nows = List.rev ((List.hd rev +. 50.) :: rev) in
      let fired_at = Hashtbl.create 16 in
      List.iteri
        (fun call now ->
          List.iter (fun e -> Hashtbl.replace fired_at e.id call) (Asic.Timer_wheel.advance w ~now))
        nows;
      List.for_all
        (fun (k, at) ->
          let bound = (Float.of_int (int_of_float (at /. g)) +. 1.) *. g in
          let rec first call = function
            | now :: rest -> if now >= bound then call else first (call + 1) rest
            | [] -> -1
          in
          Hashtbl.find_opt fired_at k = Some (first 0 nows))
        (List.mapi (fun k at -> (k, at)) deadlines))

(* Random schedule / cancel / advance sequences against a sorted-list
   reference. The reference keeps each live payload's deadline, its
   scheduling sequence number and its effective tick: its own tick, or
   the first tick not yet swept when it was scheduled into a completed
   one. An [advance] whose last completed tick [last] is past the swept
   ones delivers exactly the entries whose effective tick is at most
   [last] (the one-tick bound), in (deadline, sequence) order. After
   every step each live payload is found at the position it records,
   and every other one records none. *)
type wheel_op =
  | W_schedule of int * float
  | W_cancel of int
  | W_advance of float

let pp_wheel_op = function
  | W_schedule (i, at) -> Printf.sprintf "schedule %d@%g" i at
  | W_cancel i -> Printf.sprintf "cancel %d" i
  | W_advance dt -> Printf.sprintf "advance +%g" dt

let qcheck_wheel_matches_reference =
  let op =
    QCheck.Gen.(
      frequency
        [
          (4, map2 (fun i at -> W_schedule (i, at)) (int_bound 15) (float_bound_inclusive 40.));
          (2, map (fun i -> W_cancel i) (int_bound 15));
          (3, map (fun dt -> W_advance dt) (float_bound_inclusive 6.));
        ])
  in
  QCheck.Test.make ~name:"wheel matches a sorted-list reference" ~count:300
    QCheck.(
      pair (int_range 0 3)
        (make ~print:(Print.list pp_wheel_op) Gen.(list_size (int_range 1 80) op)))
    (fun (g_exp, ops) ->
      let g = Float.ldexp 1. (g_exp - 2) in
      let w = wheel ~granularity:g ~slots:4 in
      let payloads = Array.init 16 aged in
      (* id -> (at, seq, effective tick) *)
      let live = Hashtbl.create 16 in
      let seq = ref 0 and swept = ref (-1) and now = ref 0. in
      let consistent () =
        Asic.Timer_wheel.scheduled w = Hashtbl.length live
        && Array.for_all
             (fun e ->
               if Hashtbl.mem live e.id then Asic.Timer_wheel.key_at w ~pos:e.pos == e
               else e.pos = Asic.Timer_wheel.no_pos)
             payloads
      in
      let drop i =
        if Hashtbl.mem live i then begin
          Asic.Timer_wheel.cancel w ~pos:payloads.(i).pos;
          Hashtbl.remove live i
        end
      in
      let advance_to t =
        now := t;
        let got = ids (Asic.Timer_wheel.advance w ~now:t) in
        let last = int_of_float (t /. g) - 1 in
        let expected =
          if last <= !swept then []
          else begin
            swept := last;
            Hashtbl.fold
              (fun i (at, s, eff) acc -> if eff <= last then (at, s, i) :: acc else acc)
              live []
            |> List.sort (fun (a, s, _) (b, s', _) ->
                   match Float.compare a b with 0 -> Int.compare s s' | c -> c)
            |> List.map (fun (_, _, i) -> i)
          end
        in
        List.iter (Hashtbl.remove live) expected;
        got = expected
      in
      let step ok op =
        ok
        && (match op with
            | W_schedule (i, at) ->
              drop i;
              Asic.Timer_wheel.schedule w ~key:payloads.(i) ~at;
              Hashtbl.replace live i (at, !seq, Int.max (int_of_float (at /. g)) (!swept + 1));
              incr seq;
              true
            | W_cancel i ->
              (* a cancelled or delivered payload records no_pos: a no-op *)
              if not (Hashtbl.mem live i) then Asic.Timer_wheel.cancel w ~pos:payloads.(i).pos;
              drop i;
              true
            | W_advance dt -> advance_to (!now +. dt))
        && consistent ()
      in
      List.fold_left step true ops && advance_to (!now +. 100.) && Hashtbl.length live = 0)

(* ---------- Resources / Table_spec ---------- *)

let resources_math () =
  let a = Asic.Resources.make ~sram_bits:100 ~hash_bits:10 () in
  let b = Asic.Resources.make ~sram_bits:50 ~vliw_actions:2 () in
  let s = Asic.Resources.sum [ a; b ] in
  check Alcotest.int "sram" 150 s.Asic.Resources.sram_bits;
  check Alcotest.int "vliw" 2 s.Asic.Resources.vliw_actions;
  let p = Asic.Resources.relative_to ~base:(Asic.Resources.make ~sram_bits:300 ()) a in
  check (Alcotest.float 1e-9) "pct" (100. /. 3.) p.Asic.Resources.p_sram;
  check (Alcotest.float 1e-9) "0/0" 0. p.Asic.Resources.p_tcam

let table_spec_sram () =
  let spec =
    Asic.Table_spec.make ~name:"conn" ~entries:1_000_000 ~match_key_bits:296
      ~stored_key_bits:16 ~action_data_bits:6 ()
  in
  let sram spec = (Asic.Table_spec.resources spec).Asic.Resources.sram_bits in
  check Alcotest.int "sram" (250_000 * 112) (sram spec);
  (* 16 + 6 + 6 = 28-bit entries: four to a 112-bit word *)
  check Alcotest.int "entry bits" 112 (sram { spec with Asic.Table_spec.entries = 4 })

let suites =
  [
    ( "asic.sram",
      [
        tc "packing" `Quick sram_packing;
        tc "units" `Quick sram_units;
        QCheck_alcotest.to_alcotest qcheck_sram_words;
      ] );
    ("asic.registers", [ tc "basic" `Quick registers_basic ]);
    ( "asic.bloom",
      [
        tc "no false negatives" `Quick bloom_no_false_negative;
        tc "clear" `Quick bloom_clear;
        tc "fp rate" `Quick bloom_fp_rate;
        tc "fp rate matches analytic" `Quick bloom_fp_rate_analytic;
        QCheck_alcotest.to_alcotest qcheck_bloom_membership;
      ] );
    ( "asic.cuckoo",
      [
        tc "insert/find" `Quick cuckoo_insert_find;
        tc "duplicate" `Quick cuckoo_duplicate;
        tc "remove" `Quick cuckoo_remove;
        tc "high occupancy" `Quick cuckoo_high_occupancy;
        tc "relocate" `Quick cuckoo_relocate;
        tc "relocate missing" `Quick cuckoo_relocate_missing;
        tc "forbidden stages" `Quick cuckoo_forbid_stage;
        tc "digest mode" `Quick cuckoo_digest_mode;
        tc "probe positions" `Quick cuckoo_probe_positions;
        tc "placement filter" `Quick cuckoo_placement_filter_respected;
        tc "bfs budget boundary" `Quick cuckoo_bfs_boundary;
        tc "greedy kick counter" `Quick cuckoo_greedy_kicks_counter;
        tc "value contract" `Quick cuckoo_value_contract;
        QCheck_alcotest.to_alcotest qcheck_cuckoo_model;
        QCheck_alcotest.to_alcotest qcheck_cuckoo_moves_preserve;
        QCheck_alcotest.to_alcotest qcheck_flat_boxed_differential;
        QCheck_alcotest.to_alcotest qcheck_flat_boxed_differential_filtered;
      ] );
    ( "asic.learning_filter",
      [
        tc "dedup" `Quick learning_dedup;
        tc "overflow" `Quick learning_overflow;
        tc "timeout" `Quick learning_timeout;
        tc "drain order" `Quick learning_drain_order;
      ] );
    ("asic.switch_cpu", [ tc "rate model" `Quick cpu_rate ]);
    ("asic.meter", [ tc "colors" `Quick meter_colors; tc "accuracy" `Quick meter_accuracy ]);
    ( "asic.ecmp",
      [
        tc "uniform selection" `Quick ecmp_select_uniform;
        tc "resilient remove" `Quick resilient_only_moves_removed;
      ] );
    ( "asic.timer_wheel",
      [
        tc "fires on time" `Quick wheel_fires_on_time;
        tc "reschedule replaces" `Quick wheel_reschedule_replaces;
        tc "cancel" `Quick wheel_cancel;
        tc "beyond a revolution" `Quick wheel_beyond_revolution;
        tc "equal deadlines in schedule order" `Quick wheel_equal_deadlines_in_schedule_order;
        QCheck_alcotest.to_alcotest qcheck_wheel_delivers_all;
        QCheck_alcotest.to_alcotest qcheck_wheel_delivery_bound;
        QCheck_alcotest.to_alcotest qcheck_wheel_matches_reference;
      ] );
    ( "asic.resources",
      [ tc "arithmetic" `Quick resources_math; tc "table spec sram" `Quick table_spec_sram ] );
  ]

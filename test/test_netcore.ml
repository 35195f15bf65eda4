(* Unit and property tests for the netcore substrate. *)

let check = Alcotest.check
let tc = Alcotest.test_case

(* ---------- Ip ---------- *)

let ip_v4_roundtrip () =
  let ip = Netcore.Ip.v4 192 168 1 42 in
  check Alcotest.string "print" "192.168.1.42" (Format.asprintf "%a" Netcore.Ip.pp ip);
  match Netcore.Ip.of_string "192.168.1.42" with
  | Some ip' -> check Alcotest.bool "parse" true (Netcore.Ip.compare ip ip' = 0)
  | None -> Alcotest.fail "parse failed"

let ip_v4_invalid () =
  List.iter
    (fun s -> check Alcotest.bool s true (Netcore.Ip.of_string s = None))
    [ "256.0.0.1"; "1.2.3"; "1.2.3.4.5"; "a.b.c.d"; ""; "1..2.3" ]

let ip_v6_roundtrip () =
  let ip = Netcore.Ip.v6 0x20010db8_00000000L 0x00000000_00000001L in
  let s = Format.asprintf "%a" Netcore.Ip.pp ip in
  check Alcotest.string "print" "2001:db8:0:0:0:0:0:1" s;
  match Netcore.Ip.of_string s with
  | Some ip' -> check Alcotest.bool "parse" true (Netcore.Ip.compare ip ip' = 0)
  | None -> Alcotest.fail "parse failed"

let ip_v6_abbreviation () =
  (match Netcore.Ip.of_string "2001:db8::1" with
   | Some ip ->
     check Alcotest.bool "::" true
       (Netcore.Ip.compare ip (Netcore.Ip.v6 0x20010db8_00000000L 1L) = 0)
   | None -> Alcotest.fail "abbrev parse failed");
  (match Netcore.Ip.of_string "::1" with
   | Some ip -> check Alcotest.bool "loopback" true (Netcore.Ip.compare ip (Netcore.Ip.v6 0L 1L) = 0)
   | None -> Alcotest.fail "::1 failed");
  (match Netcore.Ip.of_string "1::" with
   | Some ip ->
     check Alcotest.bool "1::" true
       (Netcore.Ip.compare ip (Netcore.Ip.v6 0x0001000000000000L 0L) = 0)
   | None -> Alcotest.fail "1:: failed");
  check Alcotest.bool "double ::" true (Netcore.Ip.of_string "1::2::3" = None);
  check Alcotest.bool "too many groups" true (Netcore.Ip.of_string "1:2:3:4:5:6:7:8:9" = None)

let ip_family () =
  check Alcotest.int "v4 bytes" 4 (Netcore.Ip.family_bytes (Netcore.Ip.v4 1 2 3 4));
  check Alcotest.int "v6 bytes" 16 (Netcore.Ip.family_bytes (Netcore.Ip.v6 0L 1L));
  check Alcotest.bool "is_v6" true (Netcore.Ip.is_v6 (Netcore.Ip.v6 0L 1L));
  check Alcotest.bool "not v6" false (Netcore.Ip.is_v6 (Netcore.Ip.v4 1 2 3 4))

let ip_ordering () =
  let a = Netcore.Ip.v4 1 2 3 4 and b = Netcore.Ip.v6 0L 0L in
  check Alcotest.bool "v4 < v6" true (Netcore.Ip.compare a b < 0);
  check Alcotest.int "refl" 0 (Netcore.Ip.compare a a)

let qcheck_v4_parse_print =
  QCheck.Test.make ~name:"ipv4 of_string/to_string roundtrip" ~count:200
    QCheck.(quad (int_bound 255) (int_bound 255) (int_bound 255) (int_bound 255))
    (fun (a, b, c, d) ->
      let ip = Netcore.Ip.v4 a b c d in
      match Netcore.Ip.of_string (Format.asprintf "%a" Netcore.Ip.pp ip) with
      | Some ip' -> Netcore.Ip.compare ip ip' = 0
      | None -> false)

let qcheck_v6_parse_print =
  QCheck.Test.make ~name:"ipv6 of_string/to_string roundtrip" ~count:200
    QCheck.(pair int64 int64)
    (fun (h, l) ->
      let ip = Netcore.Ip.v6 h l in
      match Netcore.Ip.of_string (Format.asprintf "%a" Netcore.Ip.pp ip) with
      | Some ip' -> Netcore.Ip.compare ip ip' = 0
      | None -> false)

(* ---------- Endpoint ---------- *)

let endpoint_roundtrip () =
  let e = Netcore.Endpoint.v4 20 0 0 1 80 in
  check Alcotest.string "print" "20.0.0.1:80" (Netcore.Endpoint.to_string e);
  (match Netcore.Endpoint.of_string "20.0.0.1:80" with
   | Some e' -> check Alcotest.bool "parse" true (Netcore.Endpoint.equal e e')
   | None -> Alcotest.fail "endpoint parse");
  let e6 = Netcore.Endpoint.make (Netcore.Ip.v6 1L 2L) 443 in
  match Netcore.Endpoint.of_string (Netcore.Endpoint.to_string e6) with
  | Some e' -> check Alcotest.bool "v6 roundtrip" true (Netcore.Endpoint.equal e6 e')
  | None -> Alcotest.fail "v6 endpoint parse"

let endpoint_invalid () =
  List.iter
    (fun s -> check Alcotest.bool s true (Netcore.Endpoint.of_string s = None))
    [ "1.2.3.4"; "1.2.3.4:"; "1.2.3.4:99999"; ":80"; "[::1]"; "[::1]443" ]

let endpoint_size () =
  check Alcotest.int "v4" 6 (Netcore.Endpoint.size_bytes (Netcore.Endpoint.v4 1 2 3 4 80));
  check Alcotest.int "v6" 18
    (Netcore.Endpoint.size_bytes (Netcore.Endpoint.make (Netcore.Ip.v6 0L 1L) 80))

(* The VIP table's key: v4 and v6 endpoints, including pairs that share
   their numeric address words or differ only in the port or one v6
   word, each found again through an equal but separately built key.
   Keys that differ in one word only must spread over the buckets. *)
let endpoint_tbl () =
  let module T = Netcore.Endpoint.Tbl in
  let keys =
    List.concat
      [
        List.init 256 (fun i -> Netcore.Endpoint.v4 20 0 (i / 250) (1 + (i mod 250)) 80);
        List.init 64 (fun i -> Netcore.Endpoint.v4 20 0 0 1 (81 + i));
        List.init 64 (fun i ->
            Netcore.Endpoint.make (Netcore.Ip.v6 0L (Int64.of_int (0x14000001 + i))) 80);
        List.init 64 (fun i -> Netcore.Endpoint.make (Netcore.Ip.v6 (Int64.of_int i) 7L) 443);
        List.init 64 (fun i -> Netcore.Endpoint.make (Netcore.Ip.v6 7L (Int64.of_int i)) 444);
      ]
  in
  let copy (e : Netcore.Endpoint.t) =
    match Netcore.Endpoint.of_string (Netcore.Endpoint.to_string e) with
    | Some e' -> e'
    | None -> Alcotest.fail "endpoint reparse"
  in
  let t = T.create 16 in
  List.iteri (fun i k -> T.replace t k i) keys;
  check Alcotest.int "every key distinct" (List.length keys) (T.length t);
  List.iteri
    (fun i k -> check Alcotest.int (Netcore.Endpoint.to_string k) i (T.find t (copy k)))
    keys;
  check Alcotest.bool "v4 and v6 with the same low word differ" true
    (T.find t (Netcore.Endpoint.v4 20 0 0 1 80)
     <> T.find t (Netcore.Endpoint.make (Netcore.Ip.v6 0L 0x14000001L) 80));
  (* 512 keys over 256 buckets: a uniform hash's longest chain is ~8;
     one that dropped a word would pile up to 64 or 256 *)
  check Alcotest.bool "bucket chains stay short" true
    ((T.stats t).Hashtbl.max_bucket_length <= 12);
  List.iteri (fun i k -> if i mod 2 = 0 then T.remove t (copy k)) keys;
  List.iteri
    (fun i k -> check Alcotest.bool "removed exactly" (i mod 2 = 1) (T.mem t k))
    keys

(* ---------- Five_tuple / hashing ---------- *)

let tuple ?(sport = 1234) ?(dport = 80) () =
  Netcore.Five_tuple.make
    ~src:(Netcore.Endpoint.v4 1 2 3 4 sport)
    ~dst:(Netcore.Endpoint.v4 20 0 0 1 dport)
    ~proto:Netcore.Protocol.Tcp

let tuple_hash_deterministic () =
  let t = tuple () in
  check Alcotest.bool "same seed same hash" true
    (Netcore.Five_tuple.hash ~seed:3 t = Netcore.Five_tuple.hash ~seed:3 t);
  check Alcotest.bool "diff seed diff hash" true
    (Netcore.Five_tuple.hash ~seed:3 t <> Netcore.Five_tuple.hash ~seed:4 t)

let tuple_digest_range () =
  let t = tuple () in
  let d = Netcore.Five_tuple.bits ~seed:0 t 16 in
  check Alcotest.bool "16-bit" true (d >= 0 && d < 65536)

let qcheck_hash_equal_tuples =
  QCheck.Test.make ~name:"equal tuples hash equally" ~count:200
    QCheck.(quad (int_bound 65535) (int_bound 65535) (int_bound 255) small_int)
    (fun (sp, dp, oct, seed) ->
      let mk () =
        Netcore.Five_tuple.make
          ~src:(Netcore.Endpoint.v4 1 2 3 oct sp)
          ~dst:(Netcore.Endpoint.v4 20 0 0 1 dp)
          ~proto:Netcore.Protocol.Udp
      in
      Netcore.Five_tuple.hash ~seed (mk ()) = Netcore.Five_tuple.hash ~seed (mk ()))

(* The hash chain as it was before tuples cached [pre]: both endpoints
   folded, the protocol mixed in, then the seeded finaliser. Every value
   derived from the cached hash must match it bit for bit, or table
   placements would move. *)
let reference_hash ~seed (t : Netcore.Five_tuple.t) =
  let acc = Netcore.Endpoint.hash_fold 0x5117_0a4dL t.Netcore.Five_tuple.src in
  let acc = Netcore.Endpoint.hash_fold acc t.Netcore.Five_tuple.dst in
  let acc =
    Netcore.Hashing.mix64
      (Int64.logxor acc (Int64.of_int (Netcore.Protocol.to_byte t.Netcore.Five_tuple.proto)))
  in
  Netcore.Hashing.seeded ~seed acc

let arb_tuple_seed =
  let open QCheck.Gen in
  let ip =
    oneof
      [
        map (fun (a, b) -> Netcore.Ip.v4 (a land 0xff) (b land 0xff) 7 9) (pair nat nat);
        map (fun (h, l) -> Netcore.Ip.v6 h l) (pair ui64 ui64);
      ]
  in
  let endpoint = map2 Netcore.Endpoint.make ip (int_bound 65535) in
  let proto = oneofl [ Netcore.Protocol.Tcp; Netcore.Protocol.Udp ] in
  QCheck.make
    ~print:(fun (t, seed, n, k) ->
      Printf.sprintf "%s seed=%d n=%d k=%d" (Format.asprintf "%a" Netcore.Five_tuple.pp t) seed n k)
    (quad
       (map3
          (fun src dst proto -> Netcore.Five_tuple.make ~src ~dst ~proto)
          endpoint endpoint proto)
       int (int_range 1 1_000_000) (int_range 1 30))

let qcheck_cached_hash_bit_identical =
  QCheck.Test.make ~name:"hash, range and bits equal the uncached chain" ~count:1000
    arb_tuple_seed (fun (t, seed, n, k) ->
      let h = reference_hash ~seed t in
      Int64.equal (Netcore.Five_tuple.hash ~seed t) h
      && Netcore.Five_tuple.range ~seed t n = Netcore.Hashing.to_range h n
      && Netcore.Five_tuple.bits ~seed t k = Netcore.Hashing.truncate_bits h k)

(* Routing's int-only comparison keeps the int64 order of the chain it
   replaces: a rendezvous comparison is the unsigned order of the two
   seeded scores of the key the halves rebuild. *)
let qcheck_int_forms_bit_identical =
  QCheck.Test.make ~name:"seeded_above equals its int64 chain" ~count:1000
    QCheck.(triple int64 small_nat small_nat)
    (fun (x, a, b) ->
      let hi = Int64.to_int (Int64.shift_right_logical x 32)
      and lo = Int64.to_int (Int64.logand x 0xffff_ffffL) in
      let h = Netcore.Hashing.seeded ~seed:5 x in
      Int64.equal (Netcore.Hashing.of_halves hi lo) x
      && Netcore.Hashing.seeded_above ~seed:5 ~hi ~lo ~a ~b
         = (Int64.unsigned_compare (Netcore.Hashing.seeded ~seed:a h)
              (Netcore.Hashing.seeded ~seed:b h)
           > 0))

let qcheck_to_range =
  QCheck.Test.make ~name:"to_range stays in range" ~count:500
    QCheck.(pair int64 (int_range 1 1_000_000))
    (fun (h, n) ->
      let v = Netcore.Hashing.to_range h n in
      v >= 0 && v < n)

let qcheck_truncate_bits =
  QCheck.Test.make ~name:"truncate_bits bounded" ~count:500
    QCheck.(pair int64 (int_range 1 30))
    (fun (h, k) ->
      let v = Netcore.Hashing.truncate_bits h k in
      v >= 0 && v < 1 lsl k)

let hash_family_independent () =
  let fam = Netcore.Hashing.family ~seed:11 in
  let x = 0xdeadbeefL in
  check Alcotest.bool "distinct members" true
    (Netcore.Hashing.apply fam 0 x <> Netcore.Hashing.apply fam 1 x)

let digest_collision_rate () =
  (* a 16-bit digest over n=1000 distinct tuples should collide rarely:
     expected collisions ~ n^2 / 2 / 65536 ~ 7.6 *)
  let seen = Hashtbl.create 1024 in
  let collisions = ref 0 in
  for i = 0 to 999 do
    let t = tuple ~sport:(i + 1) () in
    let d = Netcore.Five_tuple.bits ~seed:5 t 16 in
    if Hashtbl.mem seen d then incr collisions else Hashtbl.replace seen d ()
  done;
  check Alcotest.bool "collisions within 5x of expectation" true (!collisions < 40)

(* ---------- Tcp_flags / Packet ---------- *)

let none = Netcore.Tcp_flags.of_byte 0
let syn_ack = { Netcore.Tcp_flags.syn with ack = true }
let rst = { none with Netcore.Tcp_flags.rst = true }

let flags_byte_roundtrip () =
  List.iter
    (fun f ->
      let f' = Netcore.Tcp_flags.of_byte (Netcore.Tcp_flags.to_byte f) in
      check Alcotest.int "roundtrip" (Netcore.Tcp_flags.to_byte f) (Netcore.Tcp_flags.to_byte f'))
    [ none; Netcore.Tcp_flags.syn; syn_ack; Netcore.Tcp_flags.fin; rst; Netcore.Tcp_flags.data ]

let flags_predicates () =
  check Alcotest.bool "syn starts" true
    (Netcore.Tcp_flags.is_connection_start Netcore.Tcp_flags.syn);
  check Alcotest.bool "syn-ack not a start" false
    (Netcore.Tcp_flags.is_connection_start syn_ack);
  check Alcotest.bool "fin ends" true (Netcore.Tcp_flags.is_connection_end Netcore.Tcp_flags.fin);
  check Alcotest.bool "rst ends" true (Netcore.Tcp_flags.is_connection_end rst);
  check Alcotest.bool "data neither" false
    (Netcore.Tcp_flags.is_connection_start Netcore.Tcp_flags.data
    || Netcore.Tcp_flags.is_connection_end Netcore.Tcp_flags.data)

let packet_sizes () =
  let p = Netcore.Packet.make ~payload_len:1000 (tuple ()) in
  check Alcotest.int "v4 tcp" 1054 (Netcore.Packet.wire_size p);
  let t6 =
    Netcore.Five_tuple.make
      ~src:(Netcore.Endpoint.make (Netcore.Ip.v6 0L 1L) 1)
      ~dst:(Netcore.Endpoint.make (Netcore.Ip.v6 0L 2L) 2)
      ~proto:Netcore.Protocol.Udp
  in
  let p6 = Netcore.Packet.make ~payload_len:100 t6 in
  check Alcotest.int "v6 udp" 162 (Netcore.Packet.wire_size p6)

let suites =
  [
    ( "netcore.ip",
      [
        tc "v4 roundtrip" `Quick ip_v4_roundtrip;
        tc "v4 invalid" `Quick ip_v4_invalid;
        tc "v6 roundtrip" `Quick ip_v6_roundtrip;
        tc "v6 abbreviation" `Quick ip_v6_abbreviation;
        tc "family" `Quick ip_family;
        tc "ordering" `Quick ip_ordering;
        QCheck_alcotest.to_alcotest qcheck_v4_parse_print;
        QCheck_alcotest.to_alcotest qcheck_v6_parse_print;
      ] );
    ( "netcore.endpoint",
      [
        tc "roundtrip" `Quick endpoint_roundtrip;
        tc "invalid" `Quick endpoint_invalid;
        tc "sizes" `Quick endpoint_size;
        tc "hashtable keys" `Quick endpoint_tbl;
      ] );
    ( "netcore.five_tuple",
      [
        tc "hash deterministic" `Quick tuple_hash_deterministic;
        tc "digest range" `Quick tuple_digest_range;
        tc "digest collision rate" `Quick digest_collision_rate;
        QCheck_alcotest.to_alcotest qcheck_hash_equal_tuples;
        QCheck_alcotest.to_alcotest qcheck_cached_hash_bit_identical;
        QCheck_alcotest.to_alcotest qcheck_int_forms_bit_identical;
      ] );
    ( "netcore.hashing",
      [
        QCheck_alcotest.to_alcotest qcheck_to_range;
        QCheck_alcotest.to_alcotest qcheck_truncate_bits;
        tc "family independence" `Quick hash_family_independent;
      ] );
    ( "netcore.packet",
      [
        tc "flag bytes" `Quick flags_byte_roundtrip;
        tc "flag predicates" `Quick flags_predicates;
        tc "wire sizes" `Quick packet_sizes;
      ] );
  ]

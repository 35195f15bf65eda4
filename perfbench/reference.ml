(* The host-speed reference: a fixed kernel timed between the
   benchmark's repetitions, to rescale each repetition to one host speed.

   On a shared host the same work runs 10-30% slower for minutes at a
   time — other tenants on the core's sibling or on the memory bus, the
   hypervisor taking the core — and a run-to-run spread of that size
   hides the changes the benchmark is meant to see. Timed right before
   and right after a repetition, this kernel slows down with it, so
   [rescale] takes most of the host's drift out of the rate.

   The kernel is a linear-probing int hashtable in an 8 MB bigarray
   (past the private caches, as the switch tables are), filled by a
   fixed pseudo-random key sequence. It allocates nothing and shares no
   code with the program, so no change to the program or to its heap can
   change the reference's own speed. *)

module A = Bigarray.Array1

let slots = 1 lsl 20
let ops = 4_000_000

let table : (int, Bigarray.int_elt, Bigarray.c_layout) A.t =
  A.create Bigarray.int Bigarray.c_layout slots

(* The nominal host is one on which a pass of the kernel takes 100 ms;
   rescaled figures read as if measured there. On the 2-vCPU x86-64
   host the bounds were measured on, a pass took 84-130 ms, depending on
   what else the host was running. *)
let nominal_s = 0.1

let kernel () =
  A.fill table 0;
  (* an LCG modulo 2^63, the width of an OCaml int *)
  let x = ref 1 and found = ref 0 in
  for _ = 1 to ops do
    x := (!x * 3935559000370003845) + 1;
    (* 2^19 distinct keys in 2^20 slots: at most half full *)
    let key = ((!x lsr 24) land ((slots / 2) - 1)) + 1 in
    let i = ref (((key * 0x2545F4914F6CDD1D) lsr 20) land (slots - 1)) in
    let probing = ref true in
    while !probing do
      let s = A.unsafe_get table !i in
      if s = key then begin
        incr found;
        probing := false
      end
      else if s = 0 then begin
        A.unsafe_set table !i key;
        probing := false
      end
      else i := (!i + 1) land (slots - 1)
    done
  done;
  !found

(* seconds for one pass of the kernel *)
let time () =
  let t0 = Clock.now_ns () in
  ignore (Sys.opaque_identity (kernel ()));
  Clock.seconds_since t0

(* a duration measured while the kernel took [reference] seconds, as it
   would read on the nominal host *)
let rescale seconds ~reference = seconds *. nominal_s /. reference

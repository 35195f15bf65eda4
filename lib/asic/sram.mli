(** SRAM geometry of a match-action ASIC.

    Exact-match tables are laid out in SRAM words; the paper (following
    RMT) uses 112-bit words and packs several narrow entries into one
    word ("word packing" — four 28-bit SilkRoad ConnTable entries per
    word). This module centralises all the bit/word/byte arithmetic the
    memory model depends on. *)

val bits_for_entries : entry_bits:int -> entries:int -> int
(** Total SRAM bits consumed, including the packing waste. *)

val mib_of_bits : int -> float
(** Bits to binary megabytes (the unit Table 1 and Figures 12/14 use). *)

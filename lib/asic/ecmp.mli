(** ECMP-style hash selection over a member group.

    The generic hash units of the ASIC select one member of a group from
    a packet hash — the primitive both Duet's VIPTable and SilkRoad's
    DIPPoolTable use to pick a DIP. Two policies are provided:

    - {!select}: plain modulo selection. Removing a member reshuffles
      almost every flow — the source of Duet's PCC violations.
    - {!select_resilient}: resilient hashing over a fixed slot table.
      Only flows of a removed member are remapped (§7 "Handle DIP
      failures"). *)

val select : 'a array -> int64 -> 'a
(** [select members h] picks the member indexed by [h mod n]. The array
    must be non-empty. *)

val select_index : int -> int64 -> int
(** [select_index n h] is just the index selection, for callers that
    keep members elsewhere. *)

type 'a resilient
(** A resilient-hashing group: a slot table of fixed size, each slot
    owned by a member; membership changes only reassign the slots of the
    affected member. *)

val resilient : ?slots_per_member:int -> 'a array -> 'a resilient
(** Build a slot table (default 64 slots per member, in round-robin). *)

val resilient_select : 'a resilient -> int64 -> 'a
(** [resilient_select t h] is [resilient_slot t (to_range h (resilient_slots t))]. *)

val resilient_slots : 'a resilient -> int
(** Size of the slot table. *)

val resilient_slot : 'a resilient -> int -> 'a
(** Owner of one slot, for callers that derive the slot index from a
    hash themselves (e.g. {!Netcore.Five_tuple.range}). *)

val resilient_members : 'a resilient -> 'a array

val resilient_remove : equal:('a -> 'a -> bool) -> 'a resilient -> 'a -> 'a resilient
(** Remove a member: its slots are redistributed round-robin over the
    survivors; all other slots keep their owner. *)

val resilient_add : 'a resilient -> 'a -> 'a resilient
(** Add a member: it steals an even share of slots (deterministically)
    from existing members; unaffected slots keep their owner. *)

(** Emit the SilkRoad data plane as a P4_16 program sketch.

    The paper's artifact is "defined in a 400 line P4 program" on top of
    a baseline switch.p4. This module renders that program from a
    {!Config.t}: the same tables (ConnTable, VIPTable, DIPPoolTable,
    LearnTable), the TransitTable register pair, the digest/version
    metadata, and the Figure-10 control flow, with sizes taken from the
    configuration. It is a faithful sketch for porting back onto a real
    programmable ASIC — not something this repository compiles.

    [silkroad_cli p4] prints it. *)

val emit : Config.t -> string
(** The program text (P4_16, v1model-flavoured). *)

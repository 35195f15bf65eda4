(** Structured diagnostics — the currency of [silkroad-lint].

    Every checker (pipeline feasibility, network-wide assignment, the
    determinism source lint) reports findings as {!t}: a stable rule
    id, a severity, an optional source location, a message, and — when
    the checker can compute one — an actionable fix hint. The CLI
    renders them as text or JSON and exits non-zero iff any
    [Error]-level finding is present. *)

type severity = Error | Warning | Info

type location = {
  file : string;
  line : int;  (** 1-based *)
  col : int;  (** 0-based, compiler convention *)
}

type t = {
  rule : string;  (** stable id, e.g. ["pipe.sram"], ["det.wall-clock"] *)
  severity : severity;
  loc : location option;
  message : string;
  hint : string option;  (** actionable remediation, one line *)
}

val v : ?loc:location -> ?hint:string -> rule:string -> severity:severity -> string -> t
(** [v ~rule ~severity message] builds a diagnostic. *)

val compare : t -> t -> int
(** Deterministic order: location (file, line, col; located before
    unlocated), then rule, then message. *)

val errors : t list -> int
(** Count of [Error]-level findings. *)

val pp_list : Format.formatter -> t list -> unit
(** Sorted diagnostics followed by a [N error(s), M warning(s)]
    summary line. *)

val list_to_json : t list -> Telemetry.Json.t
(** [{ "diagnostics": [...], "errors": n, "warnings": m }] with the
    diagnostics sorted by {!compare}. *)

(** A minimal JSON abstract syntax, printer and parser.

    Just enough for the telemetry snapshots the registry exports and the
    tools that read them back — no external dependency, no streaming.
    Floats are printed with 17 significant digits so that
    [parse (to_string v)] round-trips every finite value exactly;
    non-finite floats are emitted as [null]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (single-line) rendering. *)

val to_string_pretty : t -> string
(** Two-space indented rendering, for files meant to be read by humans. *)

val parse : string -> (t, string) result
(** Parse one JSON value; trailing non-whitespace is an error. Numbers
    without [.], [e] or [E] become [Int], all others [Float]. *)

val member : string -> t -> t option
(** Field lookup in an [Obj]; [None] on other constructors. *)

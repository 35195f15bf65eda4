(** The serve-mode line protocol: one command per line, one ack per
    command.

    Grammar (tokens separated by spaces or tabs; blank lines and lines
    starting with [#] are ignored):

    {v
    line        := [@SEQ] command
    command     := vip-add VIP DIP [DIP ...]
                 | vip-remove VIP
                 | dip-add VIP DIP
                 | dip-remove VIP DIP
                 | dip-replace VIP OLD_DIP NEW_DIP
                 | health down DIP | health up DIP
                 | advance SECONDS
                 | stats [METRIC]
                 | drain
                 | quit
    response    := ok [@SEQ] [payload]
                 | err [@SEQ] message
    v}

    [VIP]/[DIP] are [ip:port] endpoints ({!Netcore.Endpoint.of_string}
    syntax); [SECONDS] is a non-negative finite float rendered with
    [%.17g] so every finite value round-trips exactly; [@SEQ] is an
    optional non-negative sequence number clients use for at-least-once
    delivery — the session acks a re-delivered sequence number without
    re-applying the command (see {!Session}).

    [parse] and [render] are exact inverses on the parseable set:
    [parse (render l) = Ok (Some l)] for every [l] whose [stats] query,
    if any, contains no whitespace ([render] never produces one that
    does if the query was itself parsed). The qcheck suite pins this. *)

type command =
  | Vip_add of Netcore.Endpoint.t * Netcore.Endpoint.t list
      (** VIP plus its initial, non-empty DIP pool *)
  | Vip_remove of Netcore.Endpoint.t
  | Dip_add of Netcore.Endpoint.t * Netcore.Endpoint.t  (** (vip, dip) *)
  | Dip_remove of Netcore.Endpoint.t * Netcore.Endpoint.t
  | Dip_replace of {
      vip : Netcore.Endpoint.t;
      old_dip : Netcore.Endpoint.t;
      new_dip : Netcore.Endpoint.t;
    }
  | Health of [ `Down | `Up ] * Netcore.Endpoint.t
  | Advance of float  (** advance virtual time by this many seconds *)
  | Stats of string option  (** [None] = the one-line PCC/backlog summary *)
  | Drain
  | Quit

type line = {
  seq : int option;
  cmd : command;
}

type response = {
  rseq : int option;  (** echoes the command's sequence number *)
  body : (string, string) result;  (** [Ok payload] or [Error message] *)
}

val render : line -> string
(** One line, no trailing newline. *)

val of_updates : (float * Netcore.Endpoint.t * Lb.Balancer.update) list -> command list
(** The commands that replay a time-sorted update schedule on a session
    whose clock starts at 0: an [advance] up to each later time, then the
    update as [dip-add] / [dip-remove] / [dip-replace]. Each delta is
    computed from the clock the session will hold, not from the previous
    scheduled time, so rounding error does not accumulate along the
    schedule: each update lands within a few ulps of its scheduled time.
    This is the one writer of update schedules as serve scripts. *)

val parse : string -> (line option, string) result
(** [Ok None] for blank/comment lines, [Error _] (human-readable, never
    raising) for anything else that is not a well-formed command.
    Tolerant of socket-client line endings: tabs, carriage returns and
    runs of spaces all separate tokens, so CRLF-terminated and
    trailing-whitespace lines parse like their canonical forms.
    [parse ∘ render] is the identity on well-formed lines. *)

val render_response : response -> string
val parse_response : string -> (response, string) result
[@@silkroad.allow "surface.unused-export: the client side of the line protocol; test_control's render/parse round trip is its subject"]
(** Exact inverse of {!render_response}: the payload is carried
    verbatim, trailing spaces included. A line ending in ['\r'] came
    off a CRLF socket client, so its whole trailing-whitespace run is
    stripped before parsing. *)

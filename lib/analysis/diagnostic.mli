(** Analysis diagnostics: one reportable finding of a static-analysis rule.

    A diagnostic names the rule that produced it, a severity, an optional
    source span, a human-readable message, and an optional fix hint.  Spans
    index the analyzed stream: instruction indices for circuit rules, line
    numbers for file-oriented rules such as the pulse-cache audit (line 1 is
    the first line). *)

type severity = Error | Warning | Info
(** [Error] aborts compilation before any GRAPE time is spent; [Warning] is
    recorded alongside {!Pqc_core.Strategy} degradations; [Info] is advisory
    lint output only. *)

val severity_to_string : severity -> string
val severity_rank : severity -> int
(** 0 for [Error], 1 for [Warning], 2 for [Info]. *)

type span = { first : int; last : int }
(** Inclusive index range into the analyzed stream. *)

val point : int -> span
val span : first:int -> last:int -> span
(** Raises [Invalid_argument] when [last < first]. *)

type t = {
  rule : string;  (** Rule id, e.g. ["PQC020"]. *)
  severity : severity;
  span : span option;
  message : string;
  hint : string option;  (** How to fix the finding, when known. *)
}

val v : ?span:span -> ?hint:string -> rule:string -> severity:severity -> string -> t
val error : ?span:span -> ?hint:string -> rule:string -> string -> t
val warning : ?span:span -> ?hint:string -> rule:string -> string -> t
val info : ?span:span -> ?hint:string -> rule:string -> string -> t

val is_error : t -> bool

val compare : t -> t -> int
(** Severity first (errors lead), then span position, then rule id. *)

val to_string : t -> string
(** E.g. ["error PQC020@7: gates of t0 are not contiguous [hint: ...]"]. *)

val to_json : t -> string
(** One JSON object, e.g.
    [{"rule":"PQC020","severity":"error","span":{"first":7,"last":7},
      "message":"...","hint":"..."}]. *)

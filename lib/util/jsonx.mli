(** Minimal JSON reader.

    The repository deliberately has no third-party JSON dependency; the
    writers ({!Pqc_core.Bench_report}, the Chrome trace export) emit
    documents by hand.  The regression-diff tooling needs to read them
    back, so this module provides a small, strict RFC 8259 parser for
    machine-generated documents: objects, arrays, strings (with the
    escape set our writers emit, including [\uXXXX]), numbers, booleans
    and [null].  It is not a streaming parser and holds the whole
    document in memory — bench reports and run logs are kilobytes. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list  (** Members in document order. *)

val escape_string : string -> string
(** Render a quoted JSON string literal for arbitrary bytes: the
    standard short escapes for quote, backslash, [\n], [\r], [\t],
    [\u00XX] for the remaining control bytes, and raw pass-through for
    everything else (so UTF-8 survives byte-for-byte).  Always parses
    back with {!parse}, and the parsed value equals the input exactly.
    Shared by the trace, run-log and bench-report writers so hostile
    names escape identically everywhere. *)

val number : float -> string
(** Render a finite float as the shortest of its [%.15g], [%.16g] and
    [%.17g] texts that {!parse} reads back to the same bits (so [-0.0]
    stays [-0] and every subnormal survives); a non-finite value, which
    JSON cannot hold, renders as [null].  Shared by the run-log and
    bench-report writers. *)

val parse : string -> (t, string) result
(** Parse one complete JSON document.  [Error msg] carries a one-line
    description with the byte offset of the failure.  Trailing
    whitespace is allowed; trailing garbage is an error. *)

(** {2 Accessors}

    Total accessors for walking parsed documents; all return [None] on
    a type or key mismatch rather than raising. *)

val member : string -> t -> t option
(** Object member lookup ([None] on non-objects and missing keys). *)

val to_float : t -> float option
(** [Num] as float; [Null] maps to [nan] (the writers render non-finite
    floats as [null]). *)

val to_int : t -> int option
(** [Num] with an integral value. *)

val to_string : t -> string option
val to_bool : t -> bool option
val to_list : t -> t list option

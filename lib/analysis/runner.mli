module Circuit = Pqc_quantum.Circuit
(** Rule execution: drive a set of rules over an analysis context.

    Stream rules share one pass over the instruction array; structural
    rules run afterwards on the validated circuit (and are skipped, with a
    note in the report, when validity rules errored — a malformed stream
    cannot be a {!Circuit.t}); external rules (cache audit) always run.
    A crashing rule is converted into a PQC999 internal-error diagnostic
    carrying the exception and backtrace — analysis itself never raises,
    except for the explicit {!Rejected} gate in {!check} and the
    duplicate-rule-id rejection in {!run}. *)

type report = {
  diagnostics : Diagnostic.t list;  (** Sorted: errors first, then by span. *)
  errors : int;
  warnings : int;
  infos : int;
  suppressed : int;  (** Findings dropped by [Off] overrides. *)
  rules_run : string list;  (** Ids of the rules that were executed. *)
  skipped_structural : bool;
      (** True when validity errors forced structural rules to be skipped. *)
}

exception Rejected of report
(** Raised by {!check} (and by {!Pqc_core.Compiler.compile}'s fail-fast
    gate) when the report contains at least one error. *)

type override = Off | Severity of Diagnostic.severity
(** Per-rule report adjustment: [Off] suppresses the rule's findings
    (counted in [suppressed]); [Severity s] re-levels them.  Overrides
    apply after every rule has run, so a disabled rule's crash still
    surfaces as PQC999.  The first binding for an id wins — prepend CLI
    flags before [PQC_LINT_RULES] entries. *)

val parse_overrides : string -> ((string * override) list, string) result
(** Parse a comma-separated spec: ["PQC040=off"], ["-PQC040"],
    ["PQC030=error"], ["PQC030=warning"], ["PQC030=info"].  Whitespace
    around items is ignored; empty items are skipped. *)

val run : ?rules:Rule.t list -> ?overrides:(string * override) list ->
  Rule.ctx -> report
(** Execute [rules] (default {!Rules.all}) over the context.  Backtrace
    recording is on while the rules run, and the caller's setting is
    restored on return.  Raises [Invalid_argument] when [rules] contains a
    duplicate id. *)

val analyze :
  ?rules:Rule.t list ->
  ?overrides:(string * override) list ->
  ?theta_len:int ->
  ?max_width:int ->
  ?topology:Pqc_transpile.Topology.t ->
  ?cache_file:string ->
  ?target:Rule.target ->
  Circuit.t ->
  report
(** Convenience: build a circuit context and {!run}. *)

val check :
  ?rules:Rule.t list ->
  ?overrides:(string * override) list ->
  ?theta_len:int ->
  ?max_width:int ->
  ?topology:Pqc_transpile.Topology.t ->
  ?cache_file:string ->
  ?target:Rule.target ->
  Circuit.t ->
  report
(** Like {!analyze} but raises {!Rejected} when the report has errors —
    the fail-fast gate used before spending GRAPE time. *)

val has_errors : report -> bool
val errors : report -> Diagnostic.t list
val warnings : report -> Diagnostic.t list

val to_string : report -> string
(** Human-readable: one line per diagnostic plus the summary. *)

val to_json : report -> string
(** Machine-readable report for [partialc lint --json] and CI. *)

val exit_code : report -> int
(** CI convention: [1] when the report has errors, else [0]. *)

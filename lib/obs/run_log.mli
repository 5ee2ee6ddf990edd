(** Per-iteration run records for variational loops (VQE / QAOA).

    The paper's central trade-off — compilation latency per variational
    iteration versus pulse duration — lives in the thousands-of-
    iterations regime, so this module records the iteration-level view:
    one JSONL line per objective evaluation, streamed straight to disk.
    The recorder holds no per-iteration state in memory (bounded memory
    on arbitrarily long runs) and never touches optimization results —
    recording on or off, the optimizer sees identical values.

    Each record carries the iteration index, the objective value, the
    wall-clock of that iteration, and — when the caller supplies a
    {!compile_info} — the compilation-strategy context the paper's
    latency table needs: strategy name, per-iteration compile latency,
    compiled pulse duration against the gate-based baseline, cache hits
    and degradations.  The file is the record: percentiles of the
    per-iteration cost come from its exact values, joined to a trace by
    [run_id], and recording pushes nothing into the {!Obs} trace.

    The [PQC_RUN_LOG] environment variable names the default output
    path used by the CLI entry points ({!path_from_env}). *)

type compile_info = {
  strategy : string;  (** Compilation strategy name, e.g. ["strict-partial"]. *)
  precompute_s : float;  (** One-off offline compilation work, seconds. *)
  compile_latency_s : float;
      (** Compilation work repeated every variational iteration, seconds
          — the quantity partial compilation attacks. *)
  pulse_duration_ns : float;  (** Compiled pulse duration. *)
  gate_duration_ns : float;  (** Gate-based baseline pulse duration. *)
  cache_hits : int;  (** Pulse-cache hits during the compile. *)
  degradations : int;  (** Fallbacks taken while compiling. *)
}
(** Compilation context attached verbatim to every record.  Plain
    strings and numbers so this library stays dependency-free; build it
    from a {!Pqc_core.Strategy.compiled} at the call site. *)

type t

val create :
  ?run_id:string ->
  ?info:compile_info ->
  ?flush_every:int ->
  algo:string ->
  label:string ->
  path:string ->
  unit ->
  t
(** Open [path] for writing (truncating) and return a recorder.
    [algo] and [label] (e.g. ["vqe"]/["lih"]) are stamped on every
    record.  [run_id] is the correlation id stamped on every record;
    it defaults to the {!Obs.Ctx} ambient at creation time (records
    carry no id when neither is present — the pre-provenance format).
    [flush_every] (default 1 — every record) bounds how many records
    may sit in the channel buffer; the stream is valid JSONL after
    every flush.  Raises [Sys_error] when the path cannot be opened —
    callers own the user-facing error. *)

val record : t -> iteration:int -> energy:float -> unit
(** Append one record.  [iteration] is the 1-based variational
    iteration (objective evaluation) index; [energy] is the objective
    value at that iteration (for QAOA, the expected cut).  Every record
    additionally carries a monotonic ["seq"] number (1-based, the
    recorder's write count) so log joins can detect truncation and
    order records without trusting timestamps.  No-op after {!close}. *)

val written : t -> int
(** Records appended so far. *)

val close : t -> unit
(** Flush and close the stream (idempotent). *)

val path_from_env : unit -> string option
(** The [PQC_RUN_LOG] path, if set and non-empty. *)

val with_log :
  ?run_id:string ->
  ?info:compile_info ->
  algo:string ->
  label:string ->
  path:string option ->
  (t option -> 'a) ->
  'a
(** [with_log ~algo ~label ~path f] runs [f (Some recorder)] with the
    recorder closed afterwards (even on exceptions), or [f None] when
    [path] is [None]. *)

(** {2 Tolerant reader}

    Reads logs written by any format version of this module: [run_id]
    and [seq] are absent from pre-provenance records and surface as
    [None].  Unparseable lines (torn tails from a crashed writer) are
    skipped, not fatal — a run log is evidence, and damaged evidence is
    still evidence. *)

type record = {
  r_algo : string;
  r_label : string;
  r_iteration : int;
  r_energy : float;
  r_elapsed_s : float;  (** [nan] when absent. *)
  r_seq : int option;  (** [None] on pre-provenance records. *)
  r_run_id : string option;  (** [None] on pre-provenance records. *)
  r_strategy : string option;  (** [None] without compile context. *)
}

val parse_record : string -> record option
(** One JSONL line as a record; [None] on damage or a non-record line. *)

val read_file : string -> record list
(** All parseable records of a JSONL file, in file order.  Raises
    [Sys_error] when the file cannot be opened. *)

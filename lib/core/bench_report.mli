(** Machine-readable benchmark output.

    The interactive bench harness prints human-oriented tables; CI and
    downstream tooling need something parseable instead.  This module
    renders a small, stable JSON document — schema changes must bump
    {!schema_version}, and the rendered form is pinned by a golden test
    so accidental drift fails [dune runtest].

    A report holds only what is a pure function of its inputs: pulse
    durations, counts and flags.  Timing is measured by [perfbench/],
    over repeated passes.  Reports can also be read back ({!of_json} /
    {!read}) so two runs can be compared by {!Bench_diff}. *)

val schema_version : int
(** Bumped on any change to the document structure below.  Currently 5. *)

type experiment = {
  name : string;  (** Benchmark circuit, e.g. ["uccsd-lih"]. *)
  strategy : string;  (** Compilation strategy compiled under. *)
  engine : string;  (** ["model"] or ["numeric"]. *)
  run_id : string;
      (** Correlation id ({!Pqc_obs.Obs.Ctx}) of the experiment's run —
          the join key against trace spans, run-log lines and cache
          entries.  [""] for ad-hoc runs with no ambient context. *)
  pulse_duration_ns : float;  (** Compiled pulse duration (parallel run). *)
  cache_hits : int;  (** Pool cache hits during the parallel compile. *)
  blocks_compiled : int;  (** Blocks dispatched during the parallel compile. *)
  workers : int;  (** Workers used by the parallel compile. *)
  equal_pulse : bool;
      (** Whether sequential and parallel compiles produced the same
          pulse schedule — the determinism contract, re-checked on every
          benchmark run. *)
}

type t = {
  mode : string;  (** ["fast"] or ["full"] ([REPRO_MODE]). *)
  workers : int;  (** Worker count the parallel runs used. *)
  experiments : experiment list;
}

val experiment_key : experiment -> string
(** ["name/strategy/engine"] — the identity under which {!Bench_diff}
    and the matrix rollup match experiments across reports. *)

val sorted : t -> t
(** Experiments reordered by {!experiment_key} (ascending).  Emitters
    sort before writing so report bytes never depend on the order cells
    or workers happened to finish in. *)

val to_json : ?extra:(string * string) list -> t -> string
(** Deterministic pretty-printed JSON (2-space indent, fixed key order,
    trailing newline).  Non-finite floats render as [null].  [extra]
    top-level members, each a key and its rendered JSON value, go between
    [workers] and [experiments]; {!of_json} ignores them. *)

val write : ?extra:(string * string) list -> path:string -> t -> unit
(** Atomic write of {!to_json} (temp file + rename). *)

val of_json : string -> (t, string) result
(** Parse a report of the current {!schema_version}.  Any other version
    is an error that names it, as is any missing or mistyped field. *)

val read : path:string -> (t, string) result
(** {!of_json} on a file's contents; I/O failures are returned as
    [Error], never raised. *)

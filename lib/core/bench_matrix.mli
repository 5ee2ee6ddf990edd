(** Manifest-driven benchmark matrix.

    A workload manifest (JSON, parsed with {!Pqc_util.Jsonx}) declares
    axes — workloads (molecules or QAOA graph specs), topologies,
    strategies, worker counts, fault plans — and the matrix is their
    cartesian product.  {!run} expands the manifest and executes every
    cell through {!Pqc_parallel.Pool}, leaving on disk, per cell, a
    single-experiment schema-v{!Bench_report.schema_version}
    {!Bench_report} document and (when the manifest asks for variational
    iterations) a {!Pqc_obs.Run_log} JSONL stream.  {!Bench_rollup}
    aggregates the results directory into one fleet-level report.

    Cell execution is self-contained — each cell traces its parallel
    compile into the caller's trace without resetting it, applies its
    own fault plan only around that compile, and writes its outputs
    atomically — so a matrix run is
    deterministic in the {e driver's} worker count: the same manifest
    produces byte-identical per-cell reports whether cells are executed
    sequentially or fanned out over the pool.

    Manifest document (all keys except [workloads] and [strategies]
    optional):
    {v
    { "schema_version": 1,
      "name": "smoke",
      "engine": "model",            // or "numeric" (GRAPE, see below)
      "seed": 7,                    // theta + variational-loop seed
      "iterations": 12,             // objective evaluations per cell; 0 = none
      "max_width": 4,               // GRAPE blocking width
      "item_deadline_s": 5.0,       // finite > 0; required when a fault plan
                                    // hangs workers
      "workloads": ["h2", "lih", "3reg6p1"],
      "topologies": ["line"],       // line | grid | clique
      "strategies": ["strict", "flexible"],
      "workers": [1, 4],
      "fault_plans": ["none", "seed=5,partial-pipe=0.5"] }
    v}

    The numeric engine runs GRAPE at dt 1 ns, 60 iterations, fidelity
    target 0.98 and no wall-clock deadline, so pulses are a pure function
    of the manifest.  This module holds the library's only copy of those
    settings ([perfbench/bench.ml] mirrors them for its canary pins), and
    the committed [bench/workloads/numeric.json] manifest is the
    repository's numeric pulse baseline. *)

module Circuit = Pqc_quantum.Circuit

val numeric_settings : unit -> Pqc_grape.Grape.settings
(** The GRAPE settings of a numeric manifest's engine: dt 1 ns, 60
    iterations, fidelity target 0.98. *)

val theta_for : int -> Circuit.t -> float array
(** [theta_for seed c] draws one angle per parameter of [c], uniformly
    in [[0, 2π)], from a stream seeded with [seed] — the binding of every
    manifest cell, of [partialc]'s commands and of the paper tables. *)

type workload =
  | Mol of Pqc_vqe.Molecule.t
  | Qaoa of { graph : Pqc_qaoa.Graph.t; p : int }

val workload_of_spec : string -> (workload, string) result
(** Parse a workload spec: a molecule name ([h2], [lih], ...) or a QAOA
    spec ["<kind><nodes>p<rounds>"] ([3reg6p2], [er8p1], [k4p3]) whose
    graph is drawn from the bench seed (2019), matching
    [partialc --benchmark]. *)

val circuit_of_spec : string -> (Circuit.t, string) result
(** The unprepared ansatz of a workload spec (UCCSD for molecules, the
    QAOA circuit for graph specs). *)

type manifest = {
  name : string;
  engine : string;  (** ["model"] or ["numeric"]. *)
  seed : int;
  iterations : int;  (** Variational objective evaluations per cell. *)
  max_width : int;
  item_deadline_s : float option;
  workloads : string list;
  topologies : string list;
  strategies : Compiler.strategy list;
  workers : int list;
  fault_plans : Fault.plan option list;  (** [None] = fault-free. *)
}

val manifest_of_json : string -> (manifest, string) result
(** Parse and validate a manifest document.  Validation is total:
    unknown workloads/topologies/strategies, malformed fault plans, an
    empty axis, a grid topology over an odd-width workload, an
    [item_deadline_s] that is not a finite number > 0, a hanging fault
    plan without [item_deadline_s], or a fault plan with an optimizer
    site ([nan], [no-converge], [stall] — they change pulses, so the
    cell's sequential/parallel comparison would fail) are all [Error] —
    every cell of an accepted manifest can execute. *)

val load_manifest : path:string -> (manifest, string) result
(** {!manifest_of_json} on a file's contents; I/O failures are
    [Error], never raised. *)

type cell = {
  index : int;  (** Position in expansion order. *)
  id : string;  (** Results subdirectory name; unique within the matrix. *)
  cell_name : string;  (** Experiment [name] (strategy lives in its own field). *)
  workload : string;
  topology : string;
  strategy : Compiler.strategy;
  cell_workers : int;  (** Workers of the cell's parallel compile. *)
  fault_plan : Fault.plan option;
}

val expand : manifest -> cell list
(** The cartesian product workloads x topologies x strategies x workers
    x fault_plans, in that nesting order — deterministic, so cell ids
    and indices are stable across runs and machines. *)

val cell_dir : out_dir:string -> cell -> string
val index_path : out_dir:string -> string

type outcome = { cell : cell; status : (unit, string) result }
(** [Error] on an execution failure {e or} a sequential/parallel pulse
    mismatch; the per-cell report (when one was produced) is on disk
    either way. *)

val run_cell : manifest -> out_dir:string -> cell -> (unit, string) result
(** Execute one cell in the current process: prepare the workload on the
    cell topology, compile sequentially with no fault plan, then traced
    and in parallel under the cell's fault plan, optionally run the
    variational loop against a {!Pqc_obs.Run_log} recorder, compare the
    two pulse schedules, and write [report.json] / [run.jsonl] under
    {!cell_dir}.
    The traced part adds its events to the caller's trace without
    resetting it, and tracing is left on or off as the caller had it;
    the ambient fault plan is restored.  Never raises on cell
    failure. *)

val run : ?workers:int -> manifest -> out_dir:string -> outcome list
(** Expand the manifest, write the {!index_path} cell index, and
    execute every cell through {!Pqc_parallel.Pool.map} on [workers]
    (default [PQC_WORKERS]) driver processes.  Outcomes are in
    expansion order. *)

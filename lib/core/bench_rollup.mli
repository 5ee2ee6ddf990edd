(** Fleet-level aggregation of a {!Bench_matrix} results directory.

    A matrix run leaves one single-experiment {!Bench_report} plus one
    serialized {!Pqc_obs.Obs.Metrics} registry per cell, and a
    [cells.json] index naming every cell the manifest expanded to.  The
    rollup folds all of that into {e one} document: every per-cell
    experiment (sorted, so bytes are stable), the cells the index
    promised but the directory is missing, and fleet-wide histogram
    rollups re-aggregated {e exactly} from the serialized registries via
    {!Pqc_obs.Obs.Metrics.Agg} — merging buckets, not averaging
    summaries.

    The rollup document is a valid schema-v3 {!Bench_report} with extra
    top-level keys ([cells], [missing_cells], [fleet_metrics]) that the
    report reader ignores, so [partialc bench diff] gates a rollup
    against a rollup baseline with no special casing: pulse-duration
    growth and vanished cells (missing experiments) gate exactly like
    single-report regressions. *)

type t = {
  report : Bench_report.t;
      (** All per-cell experiments, sorted by {!Bench_report.experiment_key};
          [mode] is ["matrix:<manifest name>"], [workers] the largest
          cell worker count. *)
  cells : int;  (** Cells listed in the index. *)
  missing_cells : string list;
      (** Index entries with no readable report, sorted. *)
  fleet : Bench_report.metric_rollup list;
      (** Histogram rollups over the merged per-cell registries. *)
}

val of_results_dir : dir:string -> (t, string) result
(** Aggregate a results directory.  [Error] only when the directory or
    its [cells.json] index is unreadable (a usage error); cells that are
    merely missing or corrupt are reported in [missing_cells], which the
    CLI turns into a regression exit. *)

val to_json : t -> string
(** Deterministic JSON (fixed key order, 2-space indent, trailing
    newline); parseable by {!read} and {!Bench_report.of_json}. *)

val write : path:string -> t -> unit
(** Atomic write of {!to_json} (temp file + rename). *)

val read : path:string -> (t, string) result

val normalize : t -> t
(** {!Bench_report.normalize} on the embedded report plus zeroed fleet
    metric floats — the byte-stable core compared by the workers:1 ==
    workers:4 determinism test. *)

val render : t -> string
(** Human summary: cell counts, missing cells, per-cell pulse table and
    fleet metric percentiles. *)

(** Fleet-level aggregation of a {!Bench_matrix} results directory.

    A matrix run leaves one single-experiment {!Bench_report} per cell
    and a [cells.json] index naming every cell the manifest expanded to.
    The rollup folds all of that into {e one} document: every per-cell
    experiment (sorted, so bytes are stable) and the cells the index
    promised but the directory is missing.  It holds no wall-clock
    field, so a rollup is a pure function of its manifest, and
    [dune runtest] compares fresh rollups with the committed ones byte
    for byte.

    The rollup document is a valid {!Bench_report} with two extra
    top-level keys ([cells], [missing_cells]) that the report reader
    ignores, so [partialc bench diff] gates a rollup against a rollup
    baseline with no special casing: pulse-duration growth and vanished
    cells (missing experiments) gate exactly like single-report
    regressions. *)

type t = {
  report : Bench_report.t;
      (** All per-cell experiments, sorted by {!Bench_report.experiment_key};
          [mode] is ["matrix:<manifest name>"], [workers] the largest
          cell worker count. *)
  cells : int;  (** Cells listed in the index. *)
  missing_cells : string list;
      (** Index entries with no readable report, sorted. *)
}

val of_results_dir : dir:string -> (t, string) result
(** Aggregate a results directory.  [Error] only when the directory or
    its [cells.json] index is unreadable (a usage error); cells that are
    merely missing or corrupt are reported in [missing_cells], which the
    CLI turns into a regression exit. *)

val to_json : t -> string
(** Deterministic JSON (fixed key order, 2-space indent, trailing
    newline); parseable by {!Bench_report.of_json}. *)

val write : path:string -> t -> unit
(** Atomic write of {!to_json} (temp file + rename). *)

val render : t -> string
(** Human summary: cell counts, missing cells and the per-cell pulse
    table. *)

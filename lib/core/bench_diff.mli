(** Regression comparison between two benchmark reports.

    [partialc bench diff OLD.json NEW.json] compares experiments keyed by
    (name, strategy, engine) and flags regressions:

    - pulse duration grew by more than [threshold_pct] (pulse durations
      are deterministic per strategy, so any growth is a real compiler
      change, not noise); growth from 0 ns counts as +inf percent, so it
      gates at every threshold;
    - an experiment present in OLD disappeared from NEW;
    - NEW reports [equal_pulse = false] (the sequential/parallel
      determinism contract broke).

    Experiments only present in NEW are reported as additions, never as
    regressions. *)

type row = {
  key : string;  (** ["name/strategy/engine"]. *)
  old_value : float;  (** Old pulse duration, ns. *)
  new_value : float;  (** New pulse duration, ns. *)
  delta_pct : float;
      (** [(new - old) / old * 100.]; when old is 0, [infinity] if new
          is larger, else [0.]. *)
  regression : bool;  (** Whether this row trips the gate. *)
  note : string;  (** Short annotation, e.g. ["+23.1% > 20.0%"]. *)
}

type t = {
  rows : row list;  (** Per-experiment comparison rows, stable order. *)
  missing : string list;  (** Keys in OLD with no NEW counterpart. *)
  added : string list;  (** Keys in NEW with no OLD counterpart. *)
  broken : string list;  (** NEW keys with [equal_pulse = false]. *)
  regressions : string list;
      (** Human-readable description of everything that trips the gate;
          empty means the diff passes. *)
}

val diff :
  ?threshold_pct:float ->
  old_report:Bench_report.t ->
  new_report:Bench_report.t ->
  unit ->
  t
(** Compare two reports.  [threshold_pct] defaults to 20 (pulse duration
    may grow by up to 20% before gating). *)

val render : t -> string
(** Delta table plus a one-line verdict, for humans. *)

module Cmat = Pqc_linalg.Cmat
module Grape = Pqc_grape.Grape
module Hamiltonian = Pqc_grape.Hamiltonian
(** Hyperparameter optimization for GRAPE (Section 7.2).

    Flexible partial compilation precomputes, for each single-parameter
    subcircuit, an (ADAM learning rate, decay) pair that makes GRAPE
    converge in as few iterations as possible.  Because there is no closed
    form relating hyperparameters to convergence, the search is
    derivative-free: an exhaustive grid over learning rate and decay,
    scored by mean iterations-to-target-fidelity among cells that
    converge at every probe angle, and by mean fidelity when none does.

    The paper's key empirical observation (Figure 4) — that the
    best-performing learning-rate region is {e robust to the concrete
    angle} bound to the subcircuit's parameter — is what makes offline
    tuning sound: {!robustness} measures it directly. *)

type objective = {
  system : Hamiltonian.t;
  target_of : float -> Cmat.t;
      (** Target unitary as a function of the slice's single angle. *)
  total_time : float;  (** Pulse duration to optimize at. *)
  settings : Grape.settings;  (** Base settings; hyperparams overridden. *)
}

type score = {
  hyperparams : Grape.hyperparams;
  iterations : float;  (** Mean iterations-to-convergence over probe angles. *)
  converged_all : bool;
  mean_fidelity : float;
  total_iterations : int;  (** Iterations summed over the probe-angle runs. *)
}

val evaluate :
  ?deadline:float -> objective -> angles:float array -> Grape.hyperparams ->
  score
(** Run GRAPE at each probe angle with the given hyperparameters.
    [deadline] (absolute wall-clock) is threaded into each GRAPE run. *)

type search = {
  best : score;  (** The winning cell. *)
  grape_runs : int;  (** GRAPE runs over the cells actually scored. *)
  grape_iterations : int;  (** Optimizer iterations summed over those runs. *)
  complete : bool;
      (** Every cell was scored and no run was cut short by the deadline:
          [best] is the grid's true winner. *)
}

val grid_search :
  ?lr_grid:float array -> ?decay_grid:float array -> ?angles:float array ->
  ?deadline:float -> objective -> search
(** Exhaustive search over the hyperparameter grid (defaults: 6 logarithmic
    learning rates in [0.03, 3], decays {0.995, 0.999, 1.0}; probe angles
    {0.5, 2.0}).  The winner is the fewest mean iterations among
    fully-converged cells, falling back to highest mean fidelity; the
    result also accounts for the work every scored cell cost.

    With a [deadline] (absolute wall-clock), at least one candidate is
    always scored; the rest of the grid is skipped once the deadline
    expires, so a bounded search still returns usable hyperparameters
    (with [complete] false).

    The grid runs in-process: the engine calls it inside a flexible
    partial batch item, which the worker pool already runs in parallel.
    Raises [Invalid_argument] on an empty grid. *)

type robustness_point = {
  angle : float;
  error_by_lr : (float * float) list;  (** (learning rate, final infidelity). *)
}

val robustness :
  ?lr_grid:float array -> objective -> angles:float array -> robustness_point list
(** The Figure 4 experiment: GRAPE error as a function of learning rate,
    repeated for several bindings of the slice's angle.  Robustness means
    the minimizing learning-rate region coincides across angles. *)

val best_lr_stability : robustness_point list -> float
(** Ratio in [0, 1]: fraction of probe angles whose per-angle best learning
    rate lies within one grid step of the overall winner (1.0 = perfectly
    robust, the paper's claim). *)

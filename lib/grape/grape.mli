module Cmat = Pqc_linalg.Cmat
(** GRadient Ascent Pulse Engineering (Section 5).

    Finds piecewise-constant control fields u_j(t) for a {!Hamiltonian}
    such that the time-ordered product of slice propagators
    exp(-i dt H(u(t_k))) realizes a target unitary.  Cost is the
    phase-invariant trace infidelity plus amplitude and smoothness
    penalties; gradients are computed analytically with the standard
    first-order rule dU_k/du_jk ~ -i dt H_j U_k (exact as dt -> 0) and fed
    to ADAM with a decaying learning rate — the two hyperparameters that
    flexible partial compilation pre-tunes per subcircuit.

    {!minimal_time} performs the paper's binary search for the shortest
    pulse duration that still reaches the target fidelity (Section 5.3). *)

type hyperparams = { learning_rate : float; decay : float }
(** Effective learning rate at iteration t is
    [learning_rate *. decay ** t]. *)

type settings = {
  dt : float;  (** Control sample period, ns. *)
  max_iters : int;
  target_fidelity : float;  (** Convergence threshold (paper: 0.999). *)
  hyperparams : hyperparams;
  amp_penalty : float;  (** Weight of the (u/u_max)^2 cost term. *)
  smoothness_penalty : float;
      (** Weight of the finite-difference smoothness cost term. *)
  envelope : bool;
      (** Additionally pin pulse endpoints to zero (with the smoothness
          term, this pushes solutions toward smooth envelopes — the
          "aggressive pulse regularization" of Section 8.3). *)
  seed : int;  (** Seed for the random initial controls. *)
}

val default_settings : settings
(** The paper's standard mode: dt = 0.05 ns (20 GSa/s), fidelity 0.999,
    light regularization. *)

val fast_settings : settings
(** Coarser time step and fidelity 0.99 — used by tests and the fast
    benchmark mode to keep single-CPU runtimes tractable (a documented
    substitution for the paper's 200k CPU-hours; see DESIGN.md). *)

val realistic_settings : settings
(** The Table 5 "more realistic" mode: coarse sampling (dt = 0.5 ns; the
    paper's 1 GSa/s is out of reach of first-order gradients at gmon flux
    amplitudes — see DESIGN.md) and aggressive pulse regularization.  Pair
    with a [Qutrit]-level Hamiltonian to include leakage. *)

type result = {
  fidelity : float;  (** Best trace fidelity reached. *)
  iterations : int;  (** Iterations executed before convergence/stop. *)
  converged : bool;
  diverged : bool;
      (** A non-finite fidelity or gradient was detected; the run aborted
          before polluting the ADAM state, keeping the best finite
          controls found so far. *)
  deadline_hit : bool;  (** The wall-clock [deadline] expired mid-run. *)
  total_time : float;  (** Pulse duration, ns. *)
  n_steps : int;
  controls : float array array;  (** Best controls, [n_controls x n_steps]. *)
  wall_time_s : float;  (** Wall-clock time spent optimizing. *)
}

val max_steps : int
(** Cap on the control discretization (100k steps); {!optimize} rejects
    [total_time / dt] beyond it with [Invalid_argument] rather than
    allocating an unbounded array of dim x dim slice propagators. *)

val optimize :
  ?settings:settings -> ?deadline:float -> Hamiltonian.t -> target:Cmat.t ->
  total_time:float -> result
(** Optimize controls for a fixed pulse duration.  [target] is the
    2^n-dimensional computational-subspace unitary; qutrit systems embed it
    and evaluate subspace fidelity.

    [deadline] is an absolute wall-clock instant ([Unix.gettimeofday]
    scale); the run stops at the first iteration boundary past it and
    reports [deadline_hit].  Raises [Invalid_argument] on non-positive
    [dt], non-finite [total_time], or a discretization beyond
    {!max_steps}. *)

val optimize_multistart :
  ?settings:settings -> ?starts:int -> ?deadline:float -> Hamiltonian.t ->
  target:Cmat.t -> total_time:float -> result
(** Run {!optimize} from [starts] (default 3) different random pulse
    initializations and keep the best — the paper's Section 10 notes that
    GRAPE convergence on wide circuits is unreliable; restarts are the
    standard mitigation.  Stops early once a start converges.  Iterations
    and wall time accumulate across starts. *)

val propagate : Hamiltonian.t -> dt:float -> float array array -> Cmat.t
(** Forward-simulate given controls; returns the realized full-dimension
    unitary (for verifying results independently of the optimizer). *)

val fidelity_of_controls :
  Hamiltonian.t -> target:Cmat.t -> dt:float -> float array array -> float

val to_pulse : ?label:string -> result -> Pqc_pulse.Pulse.t
(** Package an optimized result as a single-segment pulse schedule carrying
    the piecewise-constant control samples (exportable with
    {!Pqc_pulse.Pulse.to_json}). *)

type search = {
  minimal : result;  (** Result at the shortest converged duration. *)
  probes : (float * bool) list;
      (** Binary-search trace: (duration, converged). *)
  grape_iterations_total : int;
      (** Total optimizer iterations across all probes — the compilation
          latency proxy used by the Figure 7 accounting. *)
  wall_time_total_s : float;
      (** [wall_time_s] summed over every probe.  Probes differ several-fold
          in length (the first ones, at the upper bound and twice it, have
          the most time steps), so no single probe's rate stands for the
          search. *)
  deadline_hit : bool;
      (** Some probe ran out of wall-clock budget; [minimal] is the best
          converged duration found before the deadline, not necessarily
          the true minimum. *)
}

val minimal_time :
  ?settings:settings -> ?precision:float -> ?deadline:float ->
  upper_bound:float -> Hamiltonian.t -> target:Cmat.t -> search option
(** Binary-search the shortest [total_time] achieving the target fidelity,
    to [precision] (default 0.3 ns, the paper's choice).  [upper_bound]
    seeds the bracket (callers pass the gate-based duration: GRAPE should
    never need longer).  [None] when even the upper bound (after one
    doubling) fails to converge.

    [deadline] (absolute wall-clock) bounds the whole search: bisection
    stops at the first probe past it and returns the best converged probe
    so far (with [deadline_hit] set), or [None] if nothing converged in
    time. *)

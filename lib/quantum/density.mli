module Cmat = Pqc_linalg.Cmat
module Cvec = Pqc_linalg.Cvec
(** Density-matrix simulator with decoherence.

    The paper's central physical argument is that decoherence error grows
    exponentially with pulse duration, so pulse speedups buy success
    probability (Sections 1, 8.4).  The state-vector simulator cannot
    express that; this module evolves a density matrix under gate unitaries
    interleaved with amplitude-damping (T1) and dephasing (T2) channels
    whose strengths depend on the {e time} each qubit spends idle or
    driven — which is exactly where compilation strategy matters.

    Dimensions are 2^n x 2^n; intended for the narrow end-to-end benchmarks
    (n <= 6 or so). *)

type t
(** Mutable density-matrix state. *)

val init : int -> t
(** |0...0><0...0| on n qubits. *)

val of_statevec : Cvec.t -> t
(** Pure-state density matrix |psi><psi|. *)

val matrix : t -> Cmat.t
(** A copy of the current density matrix. *)

val trace : t -> float
(** Should remain 1 up to numerical error (channels are trace-preserving;
    property-tested). *)

val purity : t -> float
(** Tr(rho^2): 1 for pure states, < 1 once noise acts. *)

val fidelity_to : t -> Cvec.t -> float
(** <psi| rho |psi>, the overlap with a pure reference state. *)

val amplitude_damping : gamma:float -> Cmat.t list
(** Single-qubit T1 decay channel with decay probability [gamma]. *)

val dephasing : lambda:float -> Cmat.t list
(** Single-qubit pure-dephasing channel: off-diagonals shrink by
    [1 - lambda]. *)

val idle : t -> ?t1_ns:float -> ?t2_ns:float -> qubit:int -> float -> unit
(** [idle rho ~qubit dt] applies [dt] nanoseconds of free decoherence to
    one qubit: amplitude damping with gamma = 1 - exp(-dt/T1) followed by
    pure dephasing at the rate that makes total dephasing time T2
    (requires T2 <= 2 T1).  Defaults: T1 = 30 us, T2 = 20 us. *)

val expectation : Pauli.t -> t -> float
(** Tr(rho H). *)

type timing = {
  instr : Circuit.instr;
  start_time : float;
  duration : float;
}

val run_noisy :
  ?t1_ns:float -> ?t2_ns:float -> ?theta:float array -> n:int ->
  timing list -> t
(** Execute a timed gate sequence from |0...0> with decoherence: every
    qubit decoheres for exactly the wall-clock span of the schedule (idle
    gaps and gate durations alike), gates apply at their start times.
    The timings come from a {!Pqc_transpile.Schedule} or from a
    compilation strategy's (possibly compressed) durations — which is how
    pulse speedups turn into measurable fidelity gains. *)

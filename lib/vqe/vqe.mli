module Pauli = Pqc_quantum.Pauli
module Circuit = Pqc_quantum.Circuit
(** The end-to-end Variational Quantum Eigensolver loop (Section 4.1):
    guess parameters, prepare the ansatz state (on the classical
    state-vector simulator standing in for quantum hardware), measure
    <H>, and let Nelder-Mead pick the next guess. *)

type result = {
  energy : float;  (** Best <H> reached. *)
  theta : float array;  (** Parameters achieving it. *)
  evaluations : int;
      (** Number of variational iterations — each one would trigger a
          recompilation on real hardware, which is exactly the latency
          partial compilation attacks. *)
  history : float list;  (** Best-so-far energy per optimizer step. *)
}

val run :
  ?max_evals:int -> ?seed:int -> ?recorder:Pqc_obs.Run_log.t ->
  hamiltonian:Pauli.t -> ansatz:Circuit.t -> unit -> result
(** Minimize the ansatz energy with Nelder-Mead from a seeded random
    start.  The ansatz width must match the Hamiltonian's.

    [recorder]: stream one {!Pqc_obs.Run_log} record per objective
    evaluation (iteration index, energy, wall-clock) as the run
    progresses.  Recording never changes the optimization: results are
    identical with or without it. *)
